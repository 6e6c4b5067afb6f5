import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kwlab.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_clifford_suite_stdout_json(capsys):
    code, out, err = run(["clifford"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["suite"] == "clifford"
    assert rep["n_fail"] == 0
    assert "PASS" in err  # the pass/fail table goes to stderr


def test_verify_alias_and_out_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code, _, _ = run(["verify", "algebra", "--seed", "5", "--out", str(out)], capsys)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["seed"] == 5 and rep["n_fail"] == 0


def test_deterministic_reports(tmp_path, capsys):
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["model", "--m", "1", "--samples", "40", "--seed", "7", "--out", str(o1)], capsys)
    run(["model", "--m", "1", "--samples", "40", "--seed", "7", "--out", str(o2)], capsys)
    assert o1.read_bytes() == o2.read_bytes()


@pytest.mark.parametrize("m", ["1", "3", "5", "7", "9"])
def test_model_suite_passes_at_larger_m(m, capsys):
    # the decoupled-sector residuals are relative to their terms, so the
    # finite-difference error no longer grows with the fields past m = 3;
    # reduced_equations_order reads 1.2e-4 at m = 9
    code, out, _ = run(["model", "--m", m], capsys)
    assert code == 0 and json.loads(out)["n_fail"] == 0


def test_consecutive_calls_share_no_parser_state(capsys):
    # the parser is built once per process, and each call parses afresh:
    # neither a flag nor an option value carries over to the next call
    code, out, err = run(["algebra", "--table", "--seed", "5"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 5 and "PASS" in err
    code, out, err = run(["algebra"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 0 and "PASS" not in err


def test_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_spectral_exclusion_json(capsys):
    code, out, _ = run(["spectral", "exclusion", "--case", "case3", "--m", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["mu_min"] >= 6.0 - 5e-3
    lo, hi = rep["excluded_interval"]
    assert lo <= 0.0 and hi >= 1.5


@pytest.mark.parametrize("m", ["11", "20"])
def test_spectral_exclusion_case3_large_m_gives_a_verdict(m, capsys):
    # the potential used to overflow to inf / inf here, ending in a traceback
    code, out, err = run(["spectral", "exclusion", "--case", "case3", "--m", m], capsys)
    assert code == 0 and "Traceback" not in err
    rep = json.loads(out)
    assert rep["m"] == int(m) and rep["mu_min"] >= 2 + (int(m) + 1) ** 2 - 5e-3


def test_spectral_ode_csv(tmp_path, capsys):
    out = tmp_path / "ode.csv"
    code, stdout, _ = run(["spectral", "ode", "--lambda", "1.0", "--k", "1.0",
                           "--out", str(out)], capsys)
    assert code == 0
    head = out.read_text().splitlines()
    assert head[0] == "x,a,b"
    rep = json.loads(stdout)
    assert rep["admissible"] is True


def test_spectral_ode_identity_residual_reads_off_lambda_one(tmp_path, capsys):
    # at lambda = 1 the default data keep a = b bit for bit, so the residual
    # reads exactly 0.0 there; away from it the identity is a live check
    code, stdout, _ = run(["spectral", "ode", "--lambda", "1.3", "--k", "1",
                           "--out", str(tmp_path / "ode.csv")], capsys)
    assert code == 0
    assert 0.0 < json.loads(stdout)["identity_residual"] <= 1e-8


@pytest.mark.parametrize("argv", [["--lambda", "1e9"], ["--lambda", "100"],
                                  ["--k", "1e160"], ["--k", "1e-200"]])
def test_spectral_ode_out_of_range(argv, tmp_path, capsys, recwarn):
    # the integrator gives up on such data, the solution's squares overflow,
    # or the start state over- or underflows: one error line, exit 2, no CSV
    # and no warning (pytest records warnings instead of printing them)
    out = tmp_path / "ode.csv"
    code, stdout, err = run(["spectral", "ode", *argv, "--out", str(out)], capsys)
    assert code == 2
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err and "Warning" not in err and stdout == ""
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


@pytest.mark.parametrize("k", ["13", "30"])
def test_spectral_ode_large_k_gives_a_verdict(k, tmp_path, capsys):
    # the admissibility windows scale with 1/|k|, so lambda = 1 is admissible
    # at every k
    out = tmp_path / "ode.csv"
    code, stdout, err = run(["spectral", "ode", "--lambda", "1", "--k", k,
                             "--out", str(out)], capsys)
    assert code == 0 and "Traceback" not in err
    rep = json.loads(stdout)
    assert rep["admissible"] is True and rep["k"] == float(k)
    assert out.read_text().startswith("x,a,b")


def test_spectral_ode_window_follows_k(tmp_path, capsys):
    # the default window is (0.1/|k|, 10/|k|): at k = 1000 the CSV holds the
    # decaying pair (1/x) e^{-|k| x} (1, 1) down to x = 0.01, where a window
    # fixed at (0.1, 10) held sign-changing integration noise near 1e-300
    out = tmp_path / "ode.csv"
    code, stdout, _ = run(["spectral", "ode", "--lambda", "1", "--k", "1000",
                           "--out", str(out)], capsys)
    assert code == 0 and json.loads(stdout)["admissible"] is True
    x, a, b = np.loadtxt(out, delimiter=",", skiprows=1).T
    assert x[0] == pytest.approx(1e-4) and x[-1] == pytest.approx(1e-2)
    assert np.all(a > 0) and np.array_equal(a, b)
    assert np.allclose(a, np.exp(-1000 * x) / x, rtol=1e-6, atol=0)


def test_spectral_hemisphere_csv(tmp_path, capsys):
    out = tmp_path / "hemi.csv"
    code, _, err = run(["spectral", "hemisphere", "--out", str(out)], capsys)
    assert code == 0
    assert "lowest eigenvalue" in err
    assert out.read_text().startswith("eigenvalue,")


def test_spectral_hemisphere_coarse_mesh_fails(tmp_path, capsys):
    # the suite's bounds: at 400 cells the ground eigenvalue is off by 6.4e-6,
    # over its 1e-6, so the run writes its CSV and exits 1
    out = tmp_path / "hemi.csv"
    code, _, _ = run(["spectral", "hemisphere", "--mesh", "400", "--out", str(out)], capsys)
    assert code == 1
    assert out.read_text().startswith("eigenvalue,")


def test_flow_run_outputs(tmp_path, capsys):
    # unknown keys are ignored: configs that still carry kmax_linear run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "N": 8, "dt": 0.02, "steps": 40, "seed": 2,
        "init": {"kind": "abelian", "amplitude": 0.05}, "kmax_linear": 1,
    }))
    code, _, _ = run(["flow", "run", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("step,time,cs")
    assert len(trace) == 42
    summary = json.loads((tmp_path / "summary.json").read_text())
    checks = {c["check_id"]: c["status"] for c in summary["checks"]}
    assert checks == {"monotone_cs": "pass", "energy_identity": "pass", "two_rate_forms": "pass"}
    assert summary["energy_identity_max_relerr"] < 1e-3
    fit = summary["lojasiewicz_fit"]
    assert sorted(fit) == ["mu_estimate", "rate", "scatter", "status"] and fit["status"] == "ok"
    assert fit["mu_estimate"] == pytest.approx(0.5, abs=1e-9)
    assert summary["linear_gap"] == 1.0
    # the fd4 flow decays at twice the stencil's k~ (1.97643 at N = 8), not at 2
    assert summary["predicted_linear_deficit_rate"] == pytest.approx(fit["rate"], rel=1e-6)


# the flow that the verification sweep runs through `flow run`
SWEEP_FLOW = {"N": 12, "dt": 0.05 * 2 * math.pi / 12, "steps": 160, "seed": 1,
              "init": {"kind": "abelian", "amplitude": 0.05}}


def _flow_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SWEEP_FLOW))
    code, _, err = run(["flow", "run", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    summary = json.loads((tmp_path / "summary.json").read_text())
    return code, err, {c["check_id"]: c for c in summary["checks"]}


def test_flow_run_passes_its_checks_on_the_sweep_config(tmp_path, capsys):
    code, _, checks = _flow_run(tmp_path, capsys)
    assert code == 0
    assert sorted(checks) == ["energy_identity", "monotone_cs", "two_rate_forms"]
    assert all(c["status"] == "pass" for c in checks.values())


def test_flow_run_exits_1_on_a_failing_check(monkeypatch, tmp_path, capsys):
    # each RK4 stage moves 1.01 times as far as the clock advances: the run
    # completes, and both rate identities fail their 1e-5
    from kwlab import flow
    adv = flow._advance
    monkeypatch.setattr(flow, "_advance", lambda Z, FZ, h, out: adv(Z, FZ, 1.01 * h, out))
    code, err, checks = _flow_run(tmp_path, capsys)
    assert code == 1
    assert {k for k, c in checks.items() if c["status"] == "fail"} == {
        "energy_identity", "two_rate_forms"}
    assert "check energy_identity failed" in err and "check two_rate_forms failed" in err


def test_flow_zero_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "N": 8, "dt": 0.02, "steps": 10, "seed": 0,
        "init": {"kind": "zero", "amplitude": 0.0},
    }))
    code, _, _ = run(["flow", "run", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["cs_initial"] == 0.0 and summary["cs_final"] == 0.0


def test_flow_schema_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"N": 8, "steps": 10,
                               "init": {"kind": "zero", "amplitude": 0.0}}))
    code, _, err = run(["flow", "run", "--config", str(cfg)], capsys)
    assert code == 2 and "'dt'" in err
    cfg.write_text(json.dumps({"N": 8, "dt": 0.02, "steps": 10,
                               "init": {"kind": "sideways", "amplitude": 0.0}}))
    code, _, err = run(["flow", "run", "--config", str(cfg)], capsys)
    assert code == 2 and "init.kind" in err


@pytest.mark.parametrize("override", [
    {"N": 0},
    {"N": -3},
    {"N": 4},
    {"N": 100000},
    {"N": True},
    {"L": 0},
    {"L": float("inf")},
    {"dt": float("nan")},
    {"dt": -0.01},
    {"dt": 0},
    {"dt": True},
    {"steps": -2},
    {"steps": 0},
    {"steps": 10 ** 12},
    {"steps": 2.0},
    {"seed": -1},
    {"init": {"kind": "random", "amplitude": -1}},
    {"init": {"kind": "random", "amplitude": float("nan")}},
    {"init": {"kind": "abelian", "amplitude": float("inf")}},
], ids=lambda o: json.dumps(o))
def test_flow_config_usage_errors(override, tmp_path, capsys):
    # bad values are usage errors: exit 2, one error line, nothing written
    cfg = tmp_path / "cfg.json"
    config = {"N": 8, "dt": 0.02, "steps": 3, "seed": 0,
              "init": {"kind": "random", "amplitude": 0.01}}
    config.update(override)
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, stdout, err = run(["flow", "run", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err and stdout == ""
    assert not out.exists()


def test_flow_run_identical_across_blas_threads(tmp_path):
    # the derivatives run inside OpenBLAS; its thread count must not change
    # a byte of the outputs.  At N = 32 each product is cut into blocks below
    # OpenBLAS's threading threshold (torus.SERIAL_GEMM_MNK), and the run
    # splits its RK4 stages into two x1 slabs on two threads; a product that
    # reached the threshold again would be run on OpenBLAS's own threads.
    # abelian data takes the sigma3-coefficient path with its own reductions
    root = Path(__file__).resolve().parents[1]
    for init in ("random", "abelian"):
        cfg = tmp_path / f"{init}.json"
        cfg.write_text(json.dumps({"N": 32, "dt": 0.03, "steps": 4, "seed": 5,
                                   "init": {"kind": init, "amplitude": 0.01}}))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(root / "src"))
            out = tmp_path / f"{init}-threads{threads}"
            proc = subprocess.run([sys.executable, "-m", "kwlab.cli", "flow", "run",
                                   "--config", str(cfg), "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes()
                            for name in ("trace.csv", "summary.json")])
        assert outputs[0] == outputs[1], init


def test_python_dash_m_kwlab_runs_the_command_line(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "kwlab", "verify", "algebra"], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["suite"] == "algebra"


def test_flow_cfl_rejection(tmp_path, capsys):
    cfg = tmp_path / "cfl.json"
    cfg.write_text(json.dumps({
        "N": 8, "dt": 0.79, "steps": 10, "seed": 0,
        "init": {"kind": "zero", "amplitude": 0.0},
    }))
    code, _, err = run(["flow", "run", "--config", str(cfg)], capsys)
    assert code == 2
    assert "suggested dt" in err


def test_flow_run_diverged(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "N": 8, "dt": 0.02, "steps": 400, "seed": 0,
        "init": {"kind": "random", "amplitude": 0.5},
    }))
    code, _, err = run(["flow", "run", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 1 and "diverged" in err

    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert summary["status"] == "diverged"
    assert summary["lojasiewicz_fit"]["status"] == "diverged"
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(rows) == summary["blowup_step"] + 2  # header and steps 0..blowup


def test_spectral_exclusion_reports_uncovered(monkeypatch, capsys):
    # a Rayleigh minimum too small to exclude [0, 3/2] is a failing check
    from kwlab import spectral
    monkeypatch.setattr(spectral, "rayleigh_min", lambda prob: {"mu": 0.5, "n_mesh": 10})
    rep = spectral.exclusion_report("case2", 1)
    assert rep["excluded_interval"][1] < 1.5
    code, out, _ = run(["spectral", "exclusion", "--case", "case2"], capsys)
    assert code == 1 and json.loads(out)["excluded_interval"][1] < 1.5


@pytest.mark.parametrize("name,value", [
    ("hardy_cone_ratio", lambda a, s: 0.5),                    # above its 4/9
    ("hardy_near_extremal_sweep", lambda: {0.1: 3.0}),         # short of 3.5
])
def test_spectral_hardy_exit_follows_its_checks(monkeypatch, capsys, name, value):
    from kwlab import spectral
    assert run(["spectral", "hardy"], capsys)[0] == 0
    monkeypatch.setattr(spectral, name, value)
    assert run(["spectral", "hardy"], capsys)[0] == 1


def test_spectral_radial_defect_fails_verify(monkeypatch, capsys):
    # an extra +f/x in f' of the radial block, which is (lambda - 1) for
    # (lambda - 2) in the a-equation of the system in (a, b) = (f, g)/x,
    # moves the integrable window: the solution at lambda = 0 then decays
    # into x = 0 and is called admissible
    from kwlab import spectral

    block_rhs = spectral._block_rhs

    def shifted_rhs(p, k):
        rhs = block_rhs(p, k)

        def shifted(s, y):
            out = rhs(s, y)
            out[:p.size] += y[:p.size]  # d/ds = x d/dx, so +f in df/ds
            return out

        return shifted

    assert run(["verify", "spectral"], capsys)[0] == 0
    monkeypatch.setattr(spectral, "_block_rhs", shifted_rhs)
    code, out, _ = run(["verify", "spectral"], capsys)
    checks = {c["check_id"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert {i for i, c in checks.items() if c["status"] == "fail"} == {
        "radial_closed_form", "radial_identity", "radial_admissibility"}
    # a verdict off the window reads inf, which the strict report writes as null
    assert checks["radial_admissibility"]["metric"] is None
    assert checks["radial_admissibility"]["worst_location"] == (
        "{0.0: True, 1.0: True, 2.0: False}")


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_tolerance_scale_must_be_positive_and_finite(value, capsys):
    # every bound is fixed and no option scales them: such a scale, which
    # would fail (or, inf, pass) every bound whatever the numbers, is a usage
    # error like any other
    with pytest.raises(SystemExit) as exc:
        main(["algebra", "--tolerance-scale", value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--tolerance-scale" in errors[0]
    assert out.out == "" and "Traceback" not in out.err


WRITERS = {
    "suite": ["algebra"],
    "hardy": ["spectral", "hardy"],
    "exclusion": ["spectral", "exclusion"],
    "hemisphere": ["spectral", "hemisphere", "--mesh", "200"],
    "ode": ["spectral", "ode"],
    "flow": ["flow", "run", "--config", "CONFIG"],
}


@pytest.mark.parametrize("name", list(WRITERS))
def test_unwritable_out_path(name, tmp_path, capsys):
    # a path under a regular file cannot be created, not even by root
    (tmp_path / "file").write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 8, "dt": 0.02, "steps": 3,
                               "init": {"kind": "zero", "amplitude": 0.0}}))
    argv = [str(cfg) if a == "CONFIG" else a for a in WRITERS[name]]
    code, stdout, err = run([*argv, "--out", str(tmp_path / "file" / "x")], capsys)
    errors = [line for line in err.splitlines() if "error:" in line]
    assert code == 2 and stdout == "" and "Traceback" not in err
    assert len(errors) == 1 and errors[0].startswith("error: cannot write")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]


@pytest.mark.parametrize("argv", [["algebra"], ["clifford"], ["model", "--samples", "20"],
                                  ["spectral"]])
def test_verify_prefix_gives_the_same_report(argv, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a, _, _ = run([*argv, "--out", str(a)], capsys)
    code_b, _, _ = run(["verify", *argv, "--out", str(b)], capsys)
    assert code_a == code_b == 0
    assert a.read_bytes() == b.read_bytes()


def test_key_error_inside_a_check_is_not_a_usage_error(monkeypatch):
    # argparse limits suite names, so a KeyError can only come from a check
    from kwlab import suites

    def broken(seed):
        return {}["missing"]

    monkeypatch.setitem(suites.SUITES, "algebra", broken)
    with pytest.raises(KeyError):
        main(["algebra"])


@pytest.mark.parametrize("argv", [
    ["model", "--m", "-1"],
    ["model", "--samples", "0"],
    ["operator", "--points", "0"],
    ["operator", "--background", "bogus"],
    ["operator", "--background", "modelfoo"],
    ["verify", "operator", "--background", "model:-1"],
    ["spectral", "exclusion", "--case", "case2", "--m", "0"],
    ["spectral", "ode", "--k", "0"],
    ["spectral", "hemisphere", "--mesh", "10"],
    ["spectral", "ode", "--lambda", "nan"],
    ["spectral", "ode", "--lambda", "inf"],
    ["spectral", "hemisphere", "--mesh", "100000000"],
    ["algebra", "--seed", "-1"],
    ["all", "--seed", "-1"],
    ["spectral", "hardy", "--seed", "-1"],
])
def test_suite_argument_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


def test_benchmark_tracer_installs():
    # the benchmark's tracer looks up every traced kwlab name without a fallback
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    code = "from spans import Tracer, install; install(Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
