import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kwlab import model
from kwlab.algebra import coeff_bracket, coeff_norm as norm, coeffs_to_su2

SIGMA = np.eye(3)  # sigma coefficients of sigma1, sigma2, sigma3
from kwlab.backgrounds import ModelBackground

P0 = np.array([1.0]), np.array([0.7 + 0.2j])  # the model suite's point, a one-point set


def test_theta_examples():
    ms = model.ModelSolution(1)
    f = model.fields(ms, np.array([1.0, 1.0, 3.0, 2.0]),
                     np.array([1.0, 1e6, 4.0, 0.0], dtype=complex))
    th, x = f["theta"], f["x"]
    assert abs(th[0] - math.log(1 + math.sqrt(2))) < 1e-12  # arcsinh(1)
    assert th[1] < 2e-6
    assert abs(x[2] - 5.0) < 1e-14
    assert abs(math.sinh(th[2]) - 0.75) < 1e-15
    assert math.isinf(th[3]) and abs(x[3] - 2.0) < 1e-14
    with pytest.raises(ValueError):
        model.fields(ms, -1.0, 1.0 + 0.0j)


def test_nahm_pole_member():
    ms = model.ModelSolution(0)
    ev = model.evaluate(ms, 0.7, 0.5 + 0.3j)
    assert abs(ev.alpha + 1.0 / (2 * 0.7)) < 1e-14
    assert abs(norm(ev.phi) - 1.0 / (math.sqrt(2) * 0.7)) < 1e-13
    for i, field in enumerate((ev.a1, ev.a2, ev.a3)):
        assert np.max(np.abs(field + SIGMA[i] / (2 * 0.7))) < 1e-14
    assert norm(ev.B3) == 0.0 and norm(ev.E1) == 0.0 and norm(ev.E2) == 0.0
    assert abs(ev.Aphi) < 1e-14


def test_m0_curvature_vanishes_widely():
    ms = model.ModelSolution(0)
    rng = np.random.default_rng(3)
    for t, z in zip(*model.sample_points(rng, 100)):
        ev = model.evaluate(ms, t, z)
        assert max(norm(ev.B3), norm(ev.E1), norm(ev.E2)) < 1e-14


def test_sample_points_draw_order():
    # seed 4's seventh candidate falls inside the excluded disk; every
    # candidate draws t, Re z, Im z, and every accepted one an unread x3
    rng = np.random.default_rng(4)
    ts, zs, rejected = [], [], 0
    while len(ts) < 200:
        t, zr, zi = rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        if abs(complex(zr, zi)) < model.SAMPLING_AXIS_EXCLUSION:
            rejected += 1
            continue
        rng.uniform(0, 2 * math.pi)
        ts.append(t)
        zs.append(complex(zr, zi))
    assert rejected == 1
    t, z = model.sample_points(np.random.default_rng(4), 200)
    assert t.dtype == float and z.dtype == complex and t.shape == z.shape == (200,)
    assert np.array_equal(t, ts) and np.array_equal(z, zs)


def _assert_close(batched, single):
    assert batched.shape == np.shape(single)
    assert np.max(np.abs(batched - single)) <= 1e-14 * np.max(np.abs(single))


@pytest.mark.parametrize("m", [0, 1, 3])
def test_batched_evaluation_matches_pointwise(m):
    rng = np.random.default_rng(40 + m)
    t = rng.uniform(0.1, 3.0, (3, 4))
    z = rng.uniform(-3.0, 3.0, (3, 4)) + 1j * rng.uniform(-3.0, 3.0, (3, 4))
    z[0, :3] = [0.0, 0.5 * model.AXIS_RADIUS, 0.5j * model.AXIS_RADIUS]  # on the axis
    ms = model.ModelSolution(m)
    batch = model.evaluate(ms, t, z)
    bg = ModelBackground(m)
    P = np.stack([t, z.real, z.imag, np.ones_like(t)], axis=-1)
    # the background refuses the first row, which holds axis points; its
    # two reads batch the other rows as evaluate does
    for read in (bg.fields, bg.x_fields):
        with pytest.raises(ValueError, match="axis disk"):
            read(P)
    off = P[1:]
    bg_batch = bg.fields(off) + bg.x_fields(off)
    for idx in np.ndindex(t.shape):
        one = model.evaluate(ms, t[idx], z[idx])
        for f in dataclasses.fields(model.ModelEval):
            _assert_close(getattr(batch, f.name)[idx], getattr(one, f.name))
        if idx[0]:
            q = off[idx[0] - 1, idx[1]]
            for b, o in zip(bg_batch, bg.fields(q) + bg.x_fields(q)):
                _assert_close(b[idx[0] - 1, idx[1]], o)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_point_evaluation_is_the_batch_bitwise(m):
    # a point evaluated alone gets the bits it gets inside a batch: before
    # model._power took the powers on arrays, numpy's 0-d path made 12, 56
    # and 12 of these 200 points differ at m = 1, 2 and 3
    t, z = model.sample_points(np.random.default_rng(0), 200)
    ms = model.ModelSolution(m)
    batch = model.evaluate(ms, t, z)
    for i in range(len(t)):
        one = model.evaluate(ms, t[i], z[i])
        for f in dataclasses.fields(model.ModelEval):
            assert np.array_equal(getattr(one, f.name), getattr(batch, f.name)[i]), (i, f.name)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_reduced_equations(m):
    ms = model.ModelSolution(m)
    res = model.verify_reduced_eqs(ms, *P0, 1e-4)
    assert max(res.values()) < 1e-8


def test_reduced_equations_richardson():
    ms = model.ModelSolution(2)
    r1 = model.verify_reduced_eqs(ms, *P0, 1e-4)
    r2 = model.verify_reduced_eqs(ms, *P0, 5e-5)
    for k in r1:
        if r2[k] > 1e-14:
            assert abs(r1[k] / r2[k] - 4.0) < 0.5


@pytest.mark.parametrize("m", range(1, 18, 2))
def test_reduced_equations_truncation_dominates(m):
    # every residual falls 4x per halving along (1e-3, 5e-4, 2.5e-4), so at
    # the model suite's pair (1e-3, 5e-4) truncation, not round-off, sets
    # the residuals (the worst |ratio - 4| here is 3.2e-3)
    ms = model.ModelSolution(m)
    res = [model.verify_reduced_eqs(ms, *P0, h) for h in (1e-3, 5e-4, 2.5e-4)]
    for coarse, fine in zip(res, res[1:]):
        for k in coarse:
            if fine[k] > 1e-14:
                assert abs(coarse[k] / fine[k] - 4.0) < 1e-2, (m, k)


def test_b3_negative_control():
    # deleting the |phi|^2 term must leave an O(1) residual
    ms = model.ModelSolution(1)
    t, z = 1.0, 0.7 + 0.2j
    ev = model.evaluate(ms, t, z)
    h = 1e-4 * min(t, abs(z))
    ap = model.evaluate(ms, t + h, z).alpha
    am = model.evaluate(ms, t - h, z).alpha
    dadt = (ap - am) / (2 * h)
    broken = norm(ev.B3 - dadt * SIGMA[2])
    assert broken > 1e-2
    full = norm(ev.B3 - (dadt - norm(ev.phi) ** 2) * SIGMA[2])
    assert full < 1e-8


@given(
    st.floats(min_value=0.2, max_value=2.5),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.25, max_value=4.0),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_scaling_equivariance_property(t, z1, z2, lam, m):
    ms = model.ModelSolution(m)
    z = complex(z1, z2 + 0.3)
    ev, evq = model.evaluate(ms, t, z), model.evaluate(ms, lam * t, lam * z)
    assert np.max(np.abs(lam * evq.a1 - ev.a1)) < 1e-12
    assert np.max(np.abs(lam * evq.a3 - ev.a3)) < 1e-12
    assert abs(evq.Aphi - ev.Aphi) < 1e-12
    assert np.max(np.abs(lam ** 2 * evq.B3 - ev.B3)) < 1e-12


@pytest.mark.parametrize("m", [0, 1, 3])
def test_property_report(m):
    rng = np.random.default_rng(7 + m)
    rep = model.verify_properties(model.ModelSolution(m), *model.sample_points(rng, 150))
    assert -(m + 1) - 1e-12 <= rep["alpha_scaled_min"]
    assert rep["alpha_scaled_max"] <= -1 + 1e-12
    assert rep["dalpha_dt_min"] > 0
    if m == 0:  # |phi| sqrt(2) t = 1 identically
        assert 1 - 1e-10 < rep["phi_bound_min"] and rep["phi_bound_max"] < 1 + 1e-10
    else:  # and strictly below 1 at every sample
        assert rep["phi_bound_max"] <= 1 - 1e-10
    assert rep["scaling_equivariance_err"] < 1e-12
    assert rep["curvature_x3_over_t_sup"] < 20.0  # finite reported constant


def test_phi_lies_in_lplus():
    from kwlab.algebra import l_decompose
    for m in (0, 2):
        ev = model.evaluate(model.ModelSolution(m), 0.8, 0.4 - 0.6j)
        phi = coeffs_to_su2(ev.phi)
        d = l_decompose(phi)
        assert np.max(np.abs(d.minus)) < 1e-14
        assert abs(d.zero) < 1e-14
        assert np.max(np.abs(d.plus - phi)) < 1e-14
        assert ev.alpha < 0.0


def test_sigma3_covariantly_constant():
    # the connection is proportional to sigma3, so [A_i, sigma3] = 0 and the
    # constant section sigma3 is covariantly constant
    ms = model.ModelSolution(2)
    ev = model.evaluate(ms, 0.8, 0.4 - 0.6j)
    for ac in (ev.A1, ev.A2):
        assert np.max(np.abs(coeff_bracket(ac, SIGMA[2]))) < 1e-14


def test_case4():
    ms = model.ModelSolution(1)
    t, z = 1.0, 0.7 + 0.2j
    for pdeg in (1, 2):
        rep = model.case4_solution(ms, pdeg, t, z, 1e-4)
        assert rep["res_t"] < 1e-7 and rep["res_dbar"] < 1e-7
        assert abs(rep["ray_exponent"] - (pdeg + 1)) < 1e-3
    with pytest.raises(ValueError):
        model.case4_solution(ms, 0, t, z, 1e-4)
    # the pairing section lands in L^-
    from kwlab.algebra import l_decompose
    sig = model.case4_section(ms, 1, t, z)
    d = l_decompose(coeffs_to_su2(sig))
    assert np.max(np.abs(d.plus)) < 1e-12 and abs(d.zero) < 1e-12


@pytest.mark.parametrize("m", [19, 30, 45])
def test_model_suite_passes_at_large_m(m):
    # decoupled_sector_solution's res_t is O(h^2) truncation growing as
    # (m + 1)^2; at a fixed h = 1e-4 it read 1.02e-7 against 1e-7 at m = 19
    from kwlab.suites import model_suite
    assert [c.check_id for c in model_suite(0, m=m) if c.status != "pass"] == []


def test_case4_pairing_normalization():
    ms = model.ModelSolution(2)
    t, z = 0.9, 0.5 + 0.1j
    sig = model.case4_section(ms, 3, t, z)
    phi = model.evaluate(ms, t, z).phi
    pairing = np.sum(phi * sig)  # -1/2 trace(phi sig)
    assert abs(pairing - z ** 3) < 1e-12
