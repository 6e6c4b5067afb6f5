import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kwlab import suites, torus
from kwlab.flow import CFLError, FlowConfig, FlowTrace, lojasiewicz_fit, run_flow
from kwlab.suites import flow_checks, gauge_invariance_check, richardson_gradient_check
from kwlab.torus import (
    TorusField, cs_functional, div_cov, dot, gauge_transform,
    gradient, gradient_check, l2_inner, random_field,
)


def grad_norm_sq(F):
    """|grad cs|^2, the gradient's norm in the field-space inner product."""
    gA, ga = gradient(F)
    return l2_inner(F, gA, ga, gA, ga)


def monotone(trace):
    """Whether the trace passes flow_checks' monotone_cs."""
    return {c.check_id: c for c in flow_checks(trace)}["monotone_cs"].status == "pass"


def abelian_field(N, amplitude):
    """A = 0, a = amplitude sigma3 sin(x1) dx2 on the torus of side 2 pi:
    abelian, so cs vanishes."""
    F = TorusField(N)
    xs = np.arange(N) * (2 * math.pi / N)
    F.a[1, 2] = amplitude * np.sin(xs)[:, None, None]
    return F


def test_zero_field_stationary():
    tr = run_flow(TorusField(8), FlowConfig(dt=0.01, steps=10))
    assert np.max(np.abs(tr.cs)) == 0.0
    assert np.max(tr.grad_norm_sq) == 0.0
    assert all(c.status == "pass" for c in flow_checks(tr))


def test_cfl_guard():
    with pytest.raises(CFLError) as exc:
        run_flow(TorusField(8), FlowConfig(dt=1.0, steps=1))
    assert exc.value.suggested_dt < 0.2 * TorusField(8).h


@pytest.mark.parametrize("dt", [math.nan, -0.01, 0.0], ids=["nan", "negative", "zero"])
def test_run_flow_rejects_a_dt_that_is_not_finite_and_positive(dt):
    # unchecked, nan runs to a "diverged" step 1, -0.01 runs the descending
    # flow to "completed", and 0 divides by zero in the energy identity
    with pytest.raises(ValueError, match="not finite and > 0") as exc:
        run_flow(TorusField(8), FlowConfig(dt=dt, steps=3))
    assert not isinstance(exc.value, CFLError)


def test_cs_abelian_vanishes():
    F = abelian_field(16, amplitude=0.3)
    assert abs(cs_functional(F)) < 1e-14
    gA, ga = gradient(F)
    assert np.max(np.abs(ga)) == 0.0  # B = 0 and a wedge a = 0
    # gA = curl a: single mode, hand value cos(x1) sigma3 dx3 up to stencil error
    xs = np.arange(16) * (2 * math.pi / 16)
    want = 0.3 * np.cos(xs)[:, None, None]
    kh = 2 * math.pi / 16
    assert np.max(np.abs(gA[2, 2] - want)) < kh ** 4


def test_gradient_check_quadratic_in_s():
    rng = np.random.default_rng(5)
    F = random_field(rng, 12, amplitude=5e-2)
    d = (random_field(rng, 12, amplitude=1.0).A, random_field(rng, 12, amplitude=1.0).a)
    gc = gradient_check(F, d, s_list=(4e-4, 2e-4, 1e-4))
    errs = list(gc["relative_errors"].values())
    assert errs[-1] < 1e-6
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def _flow_smoke_gradient_data(seed):
    # the field and direction that flow_smoke_suite draws first from its seed
    rng = np.random.default_rng(seed)
    F = random_field(rng, 12, amplitude=5e-2)
    d = (random_field(rng, 12, amplitude=1.0).A, random_field(rng, 12, amplitude=1.0).a)
    return F, d


@pytest.mark.parametrize("seed", [0, 258119753])
def test_flow_smoke_gradient_check_richardson(seed):
    # both seeds fail a single centred difference at s = 1e-4 against 1e-6
    check = richardson_gradient_check(*_flow_smoke_gradient_data(seed))
    assert check.tolerance == 1e-6
    assert check.status == "pass"


def test_flow_smoke_gradient_check_catches_wrong_gradient(monkeypatch):
    F, d = _flow_smoke_gradient_data(0)
    exact = torus.gradient
    monkeypatch.setattr(torus, "gradient", lambda G: tuple(1.001 * g for g in exact(G)))
    assert richardson_gradient_check(F, d).status == "fail"


def test_gradient_direction_gives_norm():
    rng = np.random.default_rng(6)
    F = random_field(rng, 12, amplitude=5e-2)
    gA, ga = gradient(F)
    gc = gradient_check(F, (gA, ga), s_list=(1e-4,))
    assert gc["exact"] == pytest.approx(grad_norm_sq(F), rel=1e-12)
    assert gc["exact"] > 0.0


def test_gauge_invariance_spectral():
    rng = np.random.default_rng(7)
    F = random_field(rng, 12, amplitude=5e-2)
    F.scheme = "spectral"
    xs = np.arange(12) * (2 * math.pi / 12)
    X = np.meshgrid(xs, xs, xs, indexing="ij")
    phi = np.zeros((3, 12, 12, 12))
    phi[0] = 0.01 * np.sin(X[0]) * np.cos(X[2])
    phi[2] = 0.01 * np.cos(X[1])
    Fg = gauge_transform(F, phi)
    assert abs(cs_functional(Fg) - cs_functional(F)) < 1e-8
    # the gradient norm is gauge invariant too
    assert grad_norm_sq(Fg) == pytest.approx(grad_norm_sq(F), abs=1e-8)


def test_flow_smoke_gauge_invariance_catches_fd4_gauge_transform(monkeypatch):
    # a gauge transformation that differentiates g with fd4 on spectral data
    # leaves a drift of about 1e-6 of the cs terms, far above the 1e-12 tolerance
    exact = gauge_transform

    def fd4_gauge_transform(F, phi):
        G = F.copy()
        G.scheme = "fd4"
        return exact(G, phi)

    for seed in range(6):
        F, _ = _flow_smoke_gradient_data(seed)
        F.scheme = "spectral"
        good = gauge_invariance_check(F)
        assert good.status == "pass" and good.tolerance == 1e-12
        monkeypatch.setattr(suites, "gauge_transform", fd4_gauge_transform)
        bad = gauge_invariance_check(F)
        monkeypatch.undo()
        assert bad.status == "fail" and bad.metric > 1e5 * bad.tolerance


def test_gauge_flow_equivariance():
    rng = np.random.default_rng(8)
    F = random_field(rng, 12, amplitude=2e-2)
    F.scheme = "spectral"
    xs = np.arange(12) * (2 * math.pi / 12)
    X = np.meshgrid(xs, xs, xs, indexing="ij")
    phi = np.zeros((3, 12, 12, 12))
    phi[1] = 0.02 * np.sin(X[2])
    cfg = FlowConfig(dt=0.01, steps=20)
    Fg = gauge_transform(F, phi)
    # flow then transform
    A1, a1 = _final_state(F, cfg)
    F1 = TorusField(12, A=A1, a=a1, scheme="spectral")
    F1t = gauge_transform(F1, phi)
    # transform then flow
    A2, a2 = _final_state(Fg, cfg)
    assert np.max(np.abs(F1t.A - A2)) < 1e-9
    assert np.max(np.abs(F1t.a - a2)) < 1e-9


def _final_state(F0, cfg):
    # classical RK4 on the real form (A, a), one gradient per stage
    def rhs(F, A, a):
        return gradient(TorusField(F.N, F.L, A, a, F.scheme))

    A, a = F0.A.copy(), F0.a.copy()
    for _ in range(cfg.steps):
        k1A, k1a = rhs(F0, A, a)
        k2A, k2a = rhs(F0, A + 0.5 * cfg.dt * k1A, a + 0.5 * cfg.dt * k1a)
        k3A, k3a = rhs(F0, A + 0.5 * cfg.dt * k2A, a + 0.5 * cfg.dt * k2a)
        k4A, k4a = rhs(F0, A + cfg.dt * k3A, a + cfg.dt * k3a)
        A = A + cfg.dt / 6 * (k1A + 2 * k2A + 2 * k3A + k4A)
        a = a + cfg.dt / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
    return A, a


def test_short_generic_flow_monitors():
    rng = np.random.default_rng(11)
    F = random_field(rng, 12, amplitude=1e-5)
    tr = run_flow(F, FlowConfig(dt=0.05 * F.h, steps=60))
    s = tr.summary()
    assert monotone(tr)
    assert s["energy_identity_max_relerr"] < 1e-6
    assert s["two_forms_max_relerr"] < 1e-6
    # the constraint is monitored, not enforced: it stays near its initial
    # size instead of being projected away
    assert tr.constraint_drift[-1] < 2 * tr.constraint_drift[0] + 1e-12


def test_abelian_decaying_flow():
    from kwlab.modes import positive_spectrum_field
    rng = np.random.default_rng(3)
    F = positive_spectrum_field(rng, 12, amplitude=0.05, abelian=True,
                                modes=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    tr = run_flow(F, FlowConfig(dt=0.05 * F.h, steps=160))
    s = tr.summary()
    assert monotone(tr)
    assert s["cs_initial"] < 0 < -s["cs_final"] * 0 + 1  # cs rises toward 0
    assert tr.cs[-1] > tr.cs[0]
    assert s["energy_identity_max_relerr"] < 1e-3
    assert s["two_forms_max_relerr"] < 1e-3
    fit = lojasiewicz_fit(tr)
    assert fit["status"] == "ok"
    # decay rate is twice the lattice-modified spectral gap
    kh = 2 * math.pi / 12
    ktilde = (8 * math.sin(kh) - math.sin(2 * kh)) / (6 * kh) * 1.0
    assert fit["rate"] == pytest.approx(2.0 * ktilde, rel=1e-6)
    assert fit["mu_estimate"] == pytest.approx(0.5, abs=1e-12)


@functools.cache
def _abelian_mode_flow(N):
    # one axis mode (1, 0, 0) in the decaying sector: the discrete flow is
    # exactly linear there, with fd4 symbol ktilde instead of |k| = 1
    from kwlab.modes import positive_spectrum_field
    F = positive_spectrum_field(np.random.default_rng(3), N, 0.05, abelian=True,
                                modes=[(1, 0, 0)])
    dt = 0.05 * F.h
    return run_flow(F, FlowConfig(dt=dt, steps=160)), dt


@pytest.mark.parametrize("N", [12, 16])
def test_abelian_flow_matches_exact_rk4_evolution(N):
    # cs is quadratic, so cs[n] = cs[0] R(-ktilde dt)^(2n), R the RK4 growth
    # polynomial and ktilde = (8 sin kh - sin 2kh) / (6h) the stencil's symbol
    tr, dt = _abelian_mode_flow(N)
    h = 2 * math.pi / N
    ktilde = (8 * math.sin(h) - math.sin(2 * h)) / (6 * h)
    z = -ktilde * dt
    R = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
    want = tr.cs[0] * R ** (2.0 * np.arange(len(tr.cs)))
    assert tr.cs[0] < 0 and len(tr.cs) == 161
    assert np.max(np.abs(tr.cs / want - 1)) < 1e-12


def test_abelian_flow_rate_converges_at_fourth_order():
    # the measured decay rate approaches |k| = 1 like h^4: refining N from
    # 12 to 16 shrinks 1 - rate by (16/12)^4
    deficits = []
    for N in (12, 16):
        tr, _ = _abelian_mode_flow(N)
        rate = -math.log(tr.cs[-1] / tr.cs[0]) / (2 * tr.times[-1])
        deficits.append(1 - rate)
    assert deficits[0] / deficits[1] == pytest.approx((16 / 12) ** 4, rel=0.05)


def _fake_trace(t, cs, g):
    return FlowTrace(times=t, cs=cs, grad_norm_sq=g, constraint_drift=0 * t, sup_a=0 * t,
                     energy_identity_relerr=0 * t, two_forms_relerr=0 * t)


def test_lojasiewicz_synthetic_oracle():
    # the centred difference of log g is exact for an exponential
    t = np.linspace(0, 6, 500)
    fit = lojasiewicz_fit(_fake_trace(t, 1 - np.exp(-3 * t), 3 * np.exp(-3 * t)))
    assert fit["status"] == "ok"
    assert fit["rate"] == pytest.approx(3.0, rel=1e-12)
    assert fit["mu_estimate"] == pytest.approx(0.5, abs=1e-12)


def test_lojasiewicz_power_model():
    # cs_inf - cs = t^-2 and g = 2 t^-3 = c (cs_inf - cs)^(3/2): theta = 3/2
    t = np.linspace(0.5, 80, 900)
    fit = lojasiewicz_fit(_fake_trace(t, 1 - t ** -2.0, 2 * t ** -3.0))
    assert fit["status"] == "ok"
    assert fit["mu_estimate"] == pytest.approx(0.25, abs=1e-5)


def test_lojasiewicz_stationary_declined():
    t = np.linspace(0, 5, 100)
    assert lojasiewicz_fit(_fake_trace(t, 0 * t, 0 * t)) == {
        "status": "no_decay", "mu_estimate": None, "rate": None, "scatter": None}


def test_lojasiewicz_too_short_declined():
    # the line is fitted over the second half of at least 16 records
    t = np.linspace(0, 1, 16)
    fits = [lojasiewicz_fit(_fake_trace(t[:n], 1 - np.exp(-3 * t[:n]), 3 * np.exp(-3 * t[:n])))
            for n in (15, 16)]
    assert fits[0] == {"status": "too_short", "mu_estimate": None, "rate": None, "scatter": None}
    assert fits[1]["status"] != "too_short"


@pytest.mark.parametrize("t0", [0.5, 1.0, 4.0])
def test_lojasiewicz_nahm_pole_closed_form(t0):
    # f = -1/(2 (t + t0)), cs = 2 f^3 L^3, g = 12 f^4 L^3 = c (-cs)^(4/3):
    # theta = 4/3, mu = 1/3, at every shift t0 of the pole
    L3 = (2 * math.pi) ** 3
    t = np.linspace(0, 6, 400)
    f = -0.5 / (t + t0)
    fit = lojasiewicz_fit(_fake_trace(t, 2 * f ** 3 * L3, 12 * f ** 4 * L3))
    assert fit["status"] == "ok"
    assert fit["mu_estimate"] == pytest.approx(1 / 3, abs=1e-4)


def test_constraint_drift_monitored_not_enforced():
    rng = np.random.default_rng(17)
    F = random_field(rng, 12, amplitude=1e-3)
    d0 = div_cov(F, F.a)
    tr = run_flow(F, FlowConfig(dt=0.05 * F.h, steps=30))
    assert tr.constraint_drift[0] == pytest.approx(
        math.sqrt(F.integrate(dot(d0, d0))), rel=1e-12)
    # drift evolves smoothly instead of being projected to zero
    assert tr.constraint_drift.max() < 2 * tr.constraint_drift[0]
    assert tr.constraint_drift.min() > 0.0


def test_trace_csv():
    F = abelian_field(8, amplitude=0.01)
    tr = run_flow(F, FlowConfig(dt=0.05 * F.h, steps=5))
    lines = tr.to_csv().splitlines()
    assert lines[0].split(",")[:3] == ["step", "time", "cs"]
    assert len(lines) == 7


def _logging_binder(monkeypatch, name, entry):
    """Replace kwlab.flow's binder `name` by one whose every list ends in a
    call that appends entry(*args of the bind) to the returned log, so the
    log gains one entry each time run_flow runs what it bound."""
    import kwlab.flow

    log = []
    exact = getattr(kwlab.flow, name)

    def logged(*args):
        return exact(*args) + [functools.partial(log.append, entry(*args))]

    monkeypatch.setattr(kwlab.flow, name, logged)
    return log


def test_k1_reuse_call_counts_and_trace(monkeypatch):
    # each recorded state's curvature is the next step's k1: 1 + 4n evaluations
    F = random_field(np.random.default_rng(21), 8, amplitude=0.05)
    cfg = FlowConfig(dt=0.05 * F.h, steps=6)
    # run_flow binds each curvature through the binder it imports into
    # kwlab.flow, and runs the bound list once per evaluation
    calls = _logging_binder(monkeypatch, "bind_curvature", lambda *args: 1)
    tr = run_flow(F, cfg)
    monkeypatch.undo()
    assert len(calls) == 1 + 4 * cfg.steps
    # the same trace from an RK4 that evaluates k1 afresh at every step
    for n in range(cfg.steps + 1):
        A, a = _final_state(F, FlowConfig(dt=cfg.dt, steps=n))
        Fn = TorusField(8, A=A, a=a)
        assert tr.cs[n] == pytest.approx(cs_functional(Fn), rel=1e-12)
        assert tr.grad_norm_sq[n] == pytest.approx(grad_norm_sq(Fn), rel=1e-12)
        assert tr.sup_a[n] == pytest.approx(
            float(np.sqrt(np.sum(a * a, axis=(0, 1)).max())), rel=1e-12)
    assert tr.meta["status"] == "completed" and "blowup_step" not in tr.meta


@pytest.mark.parametrize("split", [False, True], ids=["one_slab", "two_slabs"])
def test_run_binds_its_work_once(monkeypatch, split):
    # every derivative product of a run is bound before its first step, so
    # the lookups of the derivative matrices, one per bound product, do not
    # grow with the number of steps
    import kwlab.flow

    lookups = []
    exact = torus.deriv_matrices

    def counted(*args):
        lookups.append(args)
        return exact(*args)

    monkeypatch.setattr(torus, "deriv_matrices", counted)
    if split:
        monkeypatch.setattr(kwlab.flow.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(kwlab.flow, "SLAB_SPLIT_MIN_POINTS", 0)
    F = random_field(np.random.default_rng(21), 8, amplitude=1e-3)
    counts = []
    for steps in (5, 50):
        lookups.clear()
        assert len(run_flow(F, FlowConfig(dt=0.05 * F.h, steps=steps)).times) == steps + 1
        counts.append(len(lookups))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("split", [False, True], ids=["one_slab", "two_slabs"])
def test_run_binds_ten_monitor_classes(monkeypatch, split):
    # the monitor lists of state i depend on i only through i % 2 and i % 5,
    # so a run binds ten per slab, however short it is
    import kwlab.flow

    bound = []
    exact = kwlab.flow.bind_monitor_densities

    def counted(F, Z, FZ, ring, i, dens, tmp, rows=slice(None)):
        bound.append((i, rows))
        return exact(F, Z, FZ, ring, i, dens, tmp, rows)

    monkeypatch.setattr(kwlab.flow, "bind_monitor_densities", counted)
    if split:
        monkeypatch.setattr(kwlab.flow.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(kwlab.flow, "SLAB_SPLIT_MIN_POINTS", 0)
    F = random_field(np.random.default_rng(21), 8, amplitude=1e-3)
    run_flow(F, FlowConfig(dt=0.05 * F.h, steps=1))
    slabs = [slice(None)] if not split else [slice(0, 4), slice(4, 8)]
    assert sorted(bound, key=lambda b: (b[0], b[1].start or 0)) == [
        (i, r) for i in range(10) for r in slabs]


TRACE_COLUMNS = ("times", "cs", "grad_norm_sq", "constraint_drift", "sup_a",
                 "energy_identity_relerr", "two_forms_relerr")


def _sigma3_field(N, amplitude=0.05):
    from kwlab.modes import positive_spectrum_field
    return positive_spectrum_field(np.random.default_rng(3), N, amplitude, abelian=True)


def test_abelian_run_matches_full_path_on_sigma1():
    # a cyclic permutation of the sigma coefficients is a bracket
    # automorphism; it moves the data onto sigma1, where the run takes the
    # full three-coefficient path, and the trace must not change at all
    F = _sigma3_field(12)
    G = TorusField(12, A=np.roll(F.A, 1, axis=1), a=np.roll(F.a, 1, axis=1))
    assert np.any(G.a[:, 0]) and not np.any(G.a[:, 1:])
    cfg = FlowConfig(dt=0.05 * F.h, steps=100)
    tr, tr_full = run_flow(F, cfg), run_flow(G, cfg)
    assert tr.meta["abelian"] and not tr_full.meta["abelian"]
    for col in TRACE_COLUMNS:
        assert np.array_equal(getattr(tr, col), getattr(tr_full, col)), col
    assert tr.summary() == tr_full.summary()


def test_abelian_trace_equals_full_field_monitors():
    # the sigma3-only run against the full-field RK4 state after n steps:
    # cs exactly, and the gradient norm exactly as the trace splits it
    # (grad_norm_sq integrates the summed density, an ulp away)
    F = _sigma3_field(8)
    cfg = FlowConfig(dt=0.05 * F.h, steps=6)
    tr = run_flow(F, cfg)
    assert tr.meta["abelian"]
    for n in range(cfg.steps + 1):
        A, a = _final_state(F, FlowConfig(dt=cfg.dt, steps=n))
        Fn = TorusField(8, A=A, a=a)
        gA, ga = gradient(Fn)
        assert tr.cs[n] == cs_functional(Fn)
        assert tr.grad_norm_sq[n] == (Fn.integrate(dot(gA, gA).sum(axis=0))
                                      + Fn.integrate(dot(ga, ga).sum(axis=0)))
        assert tr.grad_norm_sq[n] == pytest.approx(grad_norm_sq(Fn), rel=1e-12)


def test_single_sigma1_entry_takes_full_path():
    F = _sigma3_field(8)
    F.A[1, 0, 2, 3, 4] = 1e-300
    assert not run_flow(F, FlowConfig(dt=0.05 * F.h, steps=1)).meta["abelian"]


def _nahm_field(f0, N=6):
    # A = 0, a_i = f0 sigma_i: constant, so the flow is the Nahm-type ODE
    # df/dt = 2 f^2, f = f0 / (1 - 2 f0 t), with cs = 2 f^3 L^3
    F = TorusField(N)
    for i in range(3):
        F.a[i, i] = f0
    return F


def test_nahm_sector_decay_is_fourth_order():
    errs = []
    for frac in (0.05, 0.025):
        F = _nahm_field(-0.5)
        dt = frac * F.h
        tr = run_flow(F, FlowConfig(dt=dt, steps=round(2 / dt)))
        assert tr.meta["status"] == "completed" and not tr.meta["abelian"]
        f = -0.5 / (1 + tr.times)
        errs.append(np.max(np.abs(tr.cs - 2 * f ** 3 * F.L ** 3)))
    assert errs[1] < 1e-6
    assert errs[0] / errs[1] == pytest.approx(16.0, abs=1.5)


def test_lojasiewicz_fit_of_the_nahm_flow():
    # the flow's own Nahm-pole trace, fitted up to T = 5.2, 10.5 and 15.7:
    # mu = 1/3, where a regression in t rather than t + t0 drifts with T
    F = _nahm_field(-0.5)
    tr = run_flow(F, FlowConfig(dt=0.05 * F.h, steps=300))
    assert tr.meta["status"] == "completed"
    for steps in (99, 200, 300):
        head = FlowTrace(**{col: getattr(tr, col)[:steps + 1] for col in TRACE_COLUMNS},
                         meta=tr.meta)
        fit = lojasiewicz_fit(head)
        assert fit["status"] == "ok"
        assert fit["mu_estimate"] == pytest.approx(1 / 3, abs=1e-4), steps


@pytest.mark.parametrize("frac,t_max", [(0.05, 1.15), (0.0125, 1.05)])
def test_nahm_sector_blows_up_after_t_one(frac, t_max):
    # f0 = 1/2 reaches the pole at t = 1; RK4 steps past it and overflows
    F = _nahm_field(0.5)
    dt = frac * F.h
    tr = run_flow(F, FlowConfig(dt=dt, steps=round(2 / dt)))
    assert tr.meta["status"] == "diverged"
    assert 1.0 < tr.meta["blowup_step"] * dt <= t_max


def test_diverged_flow_stops_and_says_so():
    # random data at amplitude 0.5 on N = 8 blows up within a few steps
    F = random_field(np.random.default_rng(0), 8, amplitude=0.5)
    tr = run_flow(F, FlowConfig(dt=0.02, steps=400))
    step = tr.meta["blowup_step"]
    assert tr.meta["status"] == "diverged"
    assert 0 < step < 400 and len(tr.times) == step + 1
    assert np.all(np.isfinite(tr.cs[:-1])) and np.all(np.isfinite(tr.grad_norm_sq[:-1]))
    assert not (np.isfinite(tr.cs[-1]) and np.isfinite(tr.grad_norm_sq[-1]))
    assert lojasiewicz_fit(tr)["status"] == "diverged"
    s = tr.summary()
    assert s["status"] == "diverged" and s["blowup_step"] == step
    assert s["cs_final"] is None and not monotone(tr)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(N=st.integers(6, 10), amplitude=st.floats(0.0, 2.0), seed=st.integers(0, 99),
       cfl=st.floats(0.05, 1.0), steps=st.integers(1, 30))
def test_flow_status_contract(N, amplitude, seed, cfl, steps):
    # every run ends completed with a finite trace, or diverged at its first
    # non-finite state; either way the summary is strict JSON
    F = random_field(np.random.default_rng(seed), N, amplitude=amplitude)
    tr = run_flow(F, FlowConfig(dt=cfl * 0.2 * F.h, steps=steps))
    finite = np.isfinite(tr.cs) & np.isfinite(tr.grad_norm_sq)
    if tr.meta["status"] == "completed":
        assert len(tr.times) == steps + 1 and finite.all()
    else:
        assert tr.meta["status"] == "diverged"
        assert tr.meta["blowup_step"] == len(tr.times) - 1 <= steps
        assert finite[:-1].all() and not finite[-1]
        assert lojasiewicz_fit(tr)["status"] == "diverged"
    json.dumps(tr.summary(), allow_nan=False)


def test_lojasiewicz_fit_refuses_the_nahm_flow_off_its_sector():
    # the Nahm-pole flow is fitted with mu = 1/3 up to 200 steps; by 400 steps
    # its tail has left the sector (mu reads 0.21) and the line scatters
    F = _nahm_field(-0.5)
    tr = run_flow(F, FlowConfig(dt=0.05 * F.h, steps=400))
    assert tr.meta["status"] == "completed"
    fits = {}
    for steps in (99, 200, 400):
        head = FlowTrace(**{col: getattr(tr, col)[:steps + 1] for col in TRACE_COLUMNS},
                         meta=tr.meta)
        fits[steps] = lojasiewicz_fit(head)
        # mu from the regression as it stood before the scatter bound
        n, t = steps + 1, head.times
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.log(head.grad_norm_sq)
            r = (lg[:-2] - lg[2:]) / (t[2:] - t[:-2])
        lg, r = lg[n // 2:-1], r[n // 2 - 1:]
        ok = np.isfinite(lg) & np.isfinite(r) & (r > 0)
        x = lg[ok] - lg[ok].mean()
        assert fits[steps]["mu_estimate"] == 1.0 - 0.5 / (1.0 - x @ np.log(r[ok]) / (x @ x))
    for steps in (99, 200):
        assert fits[steps]["status"] == "ok" and fits[steps]["scatter"] < 1e-5
        assert fits[steps]["mu_estimate"] == pytest.approx(1 / 3, abs=1e-4)
    assert fits[400]["status"] == "scattered" and fits[400]["scatter"] > 1.0
    assert abs(fits[400]["mu_estimate"] - 1 / 3) > 0.1


def _summed_monitors(calls):
    """np.einsum as the monitors' densities were formed before it: a
    full-size product, then np.sum over form and coefficient, or over form
    alone where the coefficient axis is kept, written to out when given;
    each call's subscripts are appended to calls."""
    axes = {torus.FORM_COEFF: (0, 1), "c...,c...->...": 0, "fc...,fc...->c...": 0}

    def einsum(spec, u, v, out=None):
        calls.append(spec)
        return np.sum(u * v, axis=axes[spec], out=out)

    return einsum


@pytest.mark.parametrize("data", ["test_13", "nonabelian"])
def test_trace_is_the_six_product_step_with_summed_monitors(monkeypatch, data):
    # the step's curvature and one-pass monitors against the six-product
    # curvature and product-then-sum monitors: every column bit for bit
    import kwlab.flow
    from kwlab.modes import positive_spectrum_field
    from test_torus_kernels import curvature_six_products

    if data == "test_13":
        F = positive_spectrum_field(np.random.default_rng(13), 16, 1e-92, abelian=True)
        steps = 40
    else:
        F = random_field(np.random.default_rng(23), 8, amplitude=0.05)
        steps = 20
    cfg = FlowConfig(dt=0.05 * F.h, steps=steps)
    tr = run_flow(F, cfg)
    calls = []
    # run_flow binds its curvatures through kwlab.flow's binder, and binds
    # np.einsum as it finds it when the run starts
    monkeypatch.setattr(kwlab.flow, "bind_curvature", lambda F, Z, out, rows, scratch: [
        functools.partial(curvature_six_products, F, Z, out, rows, scratch)])
    monkeypatch.setattr(np, "einsum", _summed_monitors(calls))
    ref = run_flow(F, cfg)
    assert tr.meta["abelian"] == (data == "test_13")
    for col in TRACE_COLUMNS:
        assert np.array_equal(getattr(tr, col), getattr(ref, col)), col
    # one pass per density and record: <a, Re F_Z>, |F_Z|^2, |d_A * a|^2,
    # |a|^2 and the ring's |da/dt|^2, over form for each coefficient, whose
    # coefficients are summed after it (before the fifth record the ring
    # holds no rate, and the one formed is not read)
    once = [torus.FORM_COEFF, torus.FORM_COEFF, "c...,c...->...", torus.FORM_COEFF,
            "fc...,fc...->c..."]
    assert calls == once * (steps + 1)


def _slab_runs(monkeypatch, F, cfg):
    """run_flow as two x1 slabs and as one, each forced through the
    crossover (and two CPUs to split onto, whatever the machine has); also
    the rows of every curvature evaluation of the split run.  The rows of
    every monitor density evaluation are checked here: each recorded
    state's densities are formed on both slabs of the split run, and once,
    on the whole grid, by the one-slab run.  So is curvature's scratch:
    each run binds every curvature with the same array.  The rows are
    logged as the bound lists run, the scratch as they are bound."""
    import kwlab.flow

    scratches = []

    def scratch_and_rows(F, Z, out, slab, scratch):
        scratches.append(scratch)
        return slab

    def one_scratch():
        shared = scratches[0] is not None and all(s is scratches[0] for s in scratches)
        scratches.clear()
        return shared

    rows = _logging_binder(monkeypatch, "bind_curvature", scratch_and_rows)
    density_rows = _logging_binder(monkeypatch, "bind_monitor_densities",
                                   lambda F, Z, FZ, ring, i, dens, tmp, slab: slab)
    monkeypatch.setattr(kwlab.flow.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(kwlab.flow, "SLAB_SPLIT_MIN_POINTS", 0)
    split = run_flow(F, cfg)
    split_rows = rows[:]
    n = F.N
    assert sorted(density_rows, key=lambda r: r.start) == [
        h for h in (slice(0, n // 2), slice(n // 2, n)) for _ in split.times]
    assert one_scratch()
    monkeypatch.setattr(kwlab.flow, "SLAB_SPLIT_MIN_POINTS", F.N ** 3 + 1)
    rows.clear()
    density_rows.clear()
    whole = run_flow(F, cfg)
    assert rows == [slice(None)] * len(rows)
    assert density_rows == [slice(None)] * len(whole.times)
    assert one_scratch()
    return split, whole, split_rows


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["n32_random", "n32_abelian", "diverging"])
def test_two_slab_run_is_the_one_slab_run(monkeypatch, case):
    # each slab runs curvature and the stage updates on its own x1 rows, with
    # a barrier after each stage: the trace is the one-slab trace bit for
    # bit, and the worker thread's error state hides the diverging run's
    # overflow as the main thread's does (warnings are errors here)
    if case == "diverging":  # test_flow_run_diverged's config
        F = random_field(np.random.default_rng(0), 8, amplitude=0.5)
        cfg = FlowConfig(dt=0.02, steps=400)
    elif case == "n32_random":
        F = random_field(np.random.default_rng(5), 32, amplitude=0.01)
        cfg = FlowConfig(dt=0.05 * F.h, steps=6)
    else:
        F = _sigma3_field(32)
        cfg = FlowConfig(dt=0.05 * F.h, steps=6)
    split, whole, rows = _slab_runs(monkeypatch, F, cfg)
    n = F.N
    halves = [slice(0, n // 2), slice(n // 2, n)]
    assert sorted(rows, key=lambda r: r.start) == [h for h in halves
                                                  for _ in range(1 + 4 * (len(split.times) - 1))]
    for col in TRACE_COLUMNS:
        assert np.array_equal(getattr(split, col), getattr(whole, col), equal_nan=True), col
    assert split.meta == whole.meta
    if case == "diverging":
        assert split.meta["status"] == "diverged" and 0 < split.meta["blowup_step"] < 400
    else:
        assert split.meta["status"] == "completed"


def test_two_slab_run_steps_through_the_module_advance(monkeypatch):
    # the slabs call flow._advance by its module name, on row views, so the
    # flow_direction witness (every stage steps against the flow) reverses
    # the split run as it does the one-slab run
    from test_witnesses import flow_run_backwards

    F = random_field(np.random.default_rng(2), 8, amplitude=0.05)
    cfg = FlowConfig(dt=0.05 * F.h, steps=5)
    split, _, _ = _slab_runs(monkeypatch, F, cfg)
    flow_run_backwards(monkeypatch)
    back, back_whole, _ = _slab_runs(monkeypatch, F, cfg)
    assert monotone(split) and not monotone(back)
    assert np.array_equal(back.cs, back_whole.cs)


FORKED_SPLIT_RUN = r"""
import os, signal
import numpy as np
from kwlab import flow
from kwlab.torus import random_field

os.sched_getaffinity = lambda pid: {0, 1}
flow.SLAB_SPLIT_MIN_POINTS = 0
F = random_field(np.random.default_rng(0), 8, amplitude=0.05)
cfg = flow.FlowConfig(dt=0.05 * F.h, steps=3)
cs = flow.run_flow(F, cfg).cs
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child left waiting on the parent's worker thread dies here
    os._exit(0 if np.array_equal(flow.run_flow(F, cfg).cs, cs) else 3)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_split_flow(tmp_path):
    # the fork copies the slab worker's executor but not its thread; the
    # child must make a worker of its own rather than wait on that one
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", FORKED_SPLIT_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_two_slab_run_raises_what_its_worker_raised(monkeypatch):
    # an error in the worker's slab reaches the caller of run_flow, after
    # both slabs have stopped, and the worker serves the next run
    import kwlab.flow

    F = random_field(np.random.default_rng(2), 8, amplitude=0.05)
    cfg = FlowConfig(dt=0.05 * F.h, steps=3)
    split, _, _ = _slab_runs(monkeypatch, F, cfg)
    monkeypatch.setattr(kwlab.flow, "SLAB_SPLIT_MIN_POINTS", 0)
    exact = torus.bind_curvature

    def planted():
        raise FloatingPointError("planted")

    def upper_fails(F, Z, out, rows, scratch):
        return exact(F, Z, out, rows, scratch) + [planted] * bool(rows.start)

    monkeypatch.setattr(kwlab.flow, "bind_curvature", upper_fails)
    with pytest.raises(FloatingPointError, match="planted"):
        run_flow(F, cfg)
    monkeypatch.setattr(kwlab.flow, "bind_curvature", exact)
    assert np.array_equal(run_flow(F, cfg).cs, split.cs)


def test_two_slab_products_stay_below_the_blas_threading_threshold(monkeypatch):
    # every gemm of a split N = 32 run, the slabs' derivatives and the
    # record's div_cov alike, is small enough that OpenBLAS runs it on the
    # calling thread
    from types import SimpleNamespace

    import kwlab.flow

    sizes = []

    def matmul(a, b, out=None):
        sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return np.matmul(a, b, out=out)

    monkeypatch.setattr(torus, "np", SimpleNamespace(**{**vars(np), "matmul": matmul}))
    monkeypatch.setattr(kwlab.flow.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    F = random_field(np.random.default_rng(5), 32, amplitude=0.01)
    run_flow(F, FlowConfig(dt=0.05 * F.h, steps=2))
    assert sizes and max(sizes) <= torus.SERIAL_GEMM_MNK
    assert max(sizes) == torus.SERIAL_GEMM_MNK  # the slab's x1 blocks, (16, 32) by (32, 512)


def test_two_slab_runs_agree_under_fast_thread_switching(monkeypatch):
    # the slabs share every array and meet at a barrier after each stage, and
    # concurrent runs share the one worker; with three runs at once on their
    # own threads and the interpreter switching threads every microsecond, a
    # stage that read rows the other slab had not finished, or had
    # overwritten, or a worker taking two runs' stages at once, would change
    # a trace.  Bounded: short runs at N = 8, each thread joined with a timeout
    import threading

    import kwlab.flow

    F = random_field(np.random.default_rng(9), 8, amplitude=0.3)
    cfg = FlowConfig(dt=0.05 * F.h, steps=8)
    _, whole, _ = _slab_runs(monkeypatch, F, cfg)
    monkeypatch.setattr(kwlab.flow, "SLAB_SPLIT_MIN_POINTS", 0)
    traces = []
    threads = [threading.Thread(target=lambda: traces.append(run_flow(F, cfg)), daemon=True)
               for _ in range(3)]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(traces) == 3
    for split in traces:
        for col in TRACE_COLUMNS:
            assert np.array_equal(getattr(split, col), getattr(whole, col)), col
