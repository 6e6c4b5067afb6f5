"""Cross-module consistency oracles.

These tests tie independently implemented routes to the same mathematics:
the closed-form model sections against the operator assemblies, the model
fields against the 1D exclusion potentials, and the mode-space quadratic
coupling against the grid flow gradient.
"""

import math

import numpy as np
import pytest
from test_operator import apply_xi

from kwlab import model
from kwlab import operator as op
from kwlab import spectral as sp
from kwlab.backgrounds import ModelBackground
from kwlab.clifford import GAMMA
from kwlab.modes import ModeVector, from_grid, k_lattice, quadratic_map_grid, symbol
from kwlab.torus import TorusField, div_cov, dot, gradient, random_field


def case4_spinor_section(ms: model.ModelSolution, p_degree: int) -> op.FuncSection:
    """The 8-component section of the decoupled sector: only the c1, c2
    slots carry the pairing-normalized section, via
    (c1 - i c2)/2 = sigma_minus."""

    def value(P):
        P = np.asarray(P, dtype=float)
        flat = P.reshape(-1, 4)
        out = np.zeros((len(flat), 8, 3), dtype=complex)
        for i, (t, x1, x2, _) in enumerate(flat):
            sig = model.case4_section(ms, p_degree, t, complex(x1, x2))
            # star(v) = -v^dag conjugates the sigma coefficients
            out[i, 4] = sig + sig.conj()
            out[i, 5] = 1j * (sig - sig.conj())
        return out.reshape(P.shape[:-1] + (8, 3))

    return op.FuncSection(value)


@pytest.mark.parametrize("m,p_deg", [(1, 1), (1, 2), (2, 2)])
def test_case4_section_in_xi_kernel(m, p_deg):
    """The closed-form sector section is annihilated by the x3-reduced
    operator assembled in the operator module -- two fully independent
    routes to the same statement."""
    ms = model.ModelSolution(m)
    bg = ModelBackground(m)
    sec = case4_spinor_section(ms, p_deg)
    for pt in (np.array([1.0, 0.7, 0.2, 0.0]), np.array([0.8, -0.4, 0.5, 0.0])):
        out = apply_xi(bg, sec, pt, 1e-5)
        scale = op.spinor_max(sec.value(pt)) + 1e-30
        assert op.spinor_max(out) / scale < 1e-7


@pytest.mark.parametrize("m,p_deg", [(1, 1), (2, 2)])
def test_case4_section_is_omega_eigenvector(m, p_deg):
    """U psi is an eigenvector of the radial-factorization operator with
    eigenvalue -(p+1): the sector enters the exclusion analysis exactly at
    the degree its ray homogeneity dictates."""
    ms = model.ModelSolution(m)
    bg = ModelBackground(m)
    psi = case4_spinor_section(ms, p_deg)

    def u_psi(P):
        P = np.asarray(P, dtype=float)
        x = np.sqrt(P[..., 0] ** 2 + P[..., 1] ** 2 + P[..., 2] ** 2)
        u = (
            P[..., 0][..., None, None] * np.eye(8)
            + P[..., 1][..., None, None] * GAMMA[0]
            + P[..., 2][..., None, None] * GAMMA[1]
        ) / x[..., None, None]
        return u @ psi.value(P)

    xi = op.FuncSection(u_psi)
    pt = np.array([0.9, 0.6, 0.3, 0.0])
    got = op.omega_apply(bg, xi, pt, 1e-5)
    want = -(p_deg + 1) * xi.value(pt)
    scale = op.spinor_max(want) + 1e-30
    assert op.spinor_max(got - want) / scale < 1e-6


@pytest.mark.parametrize("m", [1, 2, 3])
def test_case_potentials_match_model_fields(m):
    """On the unit hemisphere (t = tanh, |z| = sech of the profile variable)
    the exclusion potentials are exactly 4 x^2 |phi|^2 and
    (4 alpha^2 + 2 |phi|^2) x^2 built from the model fields."""
    ms = model.ModelSolution(m)
    w2 = sp.case_potential("case2", m)
    w3 = sp.case_potential("case3", m)
    for th in (0.2, 0.7, 1.5, 3.0, 6.0):
        t = math.tanh(th)
        r = 1.0 / math.cosh(th)
        ev = model.evaluate(ms, t, complex(r, 0.0))
        phi2 = np.vdot(ev.phi, ev.phi).real
        assert w2(np.array(th)) == pytest.approx(4.0 * phi2, rel=1e-12)
        assert w3(np.array(th)) == pytest.approx(4.0 * ev.alpha ** 2 + 2.0 * phi2,
                                                 rel=1e-12)


def _apply_symbol_grid(psi_grid, k_max, N):
    mv = from_grid(psi_grid, k_lattice(k_max))
    out = ModeVector(mv.ks, mv.coeffs.copy(), mv.L)
    for i, k in enumerate(mv.ks):
        out.coeffs[i] = symbol(k) @ mv.coeffs[i]
    return out.to_grid(N)


def test_quadratic_map_matches_flow_gradient():
    """The static nonlinear map (linear symbol + quadratic coupling) agrees
    with the independently implemented grid gradient: its 1-form rows are
    -grad cs at (A = b, a = c) and its last row is the covariant divergence
    constraint scalar."""
    rng = np.random.default_rng(123)
    N = 8
    Fb = random_field(rng, N, amplitude=0.05)
    Fc = random_field(rng, N, amplitude=0.05)
    b, c = Fb.A, Fc.a
    psi = np.zeros((8, 3, N, N, N))
    psi[0:3] = b
    psi[4:7] = c
    total = _apply_symbol_grid(psi, 3, N) + quadratic_map_grid(psi)

    F = TorusField(N, A=b.copy(), a=c.copy(), scheme="spectral")
    gA, ga = gradient(F)
    assert np.max(np.abs(total[0:3] + gA)) < 1e-12
    assert np.max(np.abs(total[4:7] + ga)) < 1e-12
    # function rows: pt = plain divergence of b, qt = covariant divergence of c
    div_b = sum(F.deriv(b[i], i) for i in range(3))
    assert np.max(np.abs(total[3] - div_b)) < 1e-12
    assert np.max(np.abs(total[7] - div_cov(F, c))) < 1e-12


def test_energy_identity_refines_at_fourth_order():
    # the identity columns take 5-point centred differences in time, so
    # halving dt over the same horizon divides both errors by 16
    from kwlab.flow import FlowConfig, run_flow
    from kwlab.modes import positive_spectrum_field

    rng = np.random.default_rng(9)
    F = positive_spectrum_field(rng, 12, amplitude=0.05, abelian=True,
                                modes=[(1, 0, 0), (0, 1, 0)])
    dt = 0.05 * F.h
    e, tf = {}, {}
    for refine in (1, 2, 4):
        s = run_flow(F.copy(), FlowConfig(dt=dt / refine, steps=60 * refine)).summary()
        e[refine], tf[refine] = s["energy_identity_max_relerr"], s["two_forms_max_relerr"]
    for err in (e, tf):
        assert err[1] / err[2] == pytest.approx(16.0, rel=0.1)
        assert err[2] / err[4] == pytest.approx(16.0, rel=0.1)
