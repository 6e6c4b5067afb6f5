import math

import numpy as np
import pytest

from kwlab import clifford as cl
from kwlab.algebra import coeff_bracket
from kwlab.modes import k_lattice


def test_all_relations_exact():
    assert all(residual == 0 for _, residual in cl.relation_checks())


def test_relation_residual_is_the_integer_defect(monkeypatch):
    # gamma1 with its entry (3, 0) doubled: 2 against -1 across the diagonal
    g1 = cl.GAMMA[0].copy()
    g1[3, 0] = 2
    monkeypatch.setattr(cl, "GAMMA", (g1,) + cl.GAMMA[1:])
    residuals = dict(cl.relation_checks())
    assert residuals["gamma1 antisymmetric"] == 1
    assert residuals["gamma1 one nonzero entry per row, entries in {-1,0,1}"] == 1
    assert residuals["gamma1 gamma1 anticommutator"] > 0
    assert residuals["gamma2 gamma3 anticommutator"] == 0


def test_q_spectrum_and_structure():
    q = cl.q_endo()
    assert np.max(np.abs(q + q.T)) == 0.0
    ev = cl.antisymmetric_spectrum(q)
    want = sorted([-3.0] * 4 + [-1.0] * 8 + [1.0] * 8 + [3.0] * 4)
    assert np.max(np.abs(np.array(sorted(ev)) - want)) < 1e-10


def test_l_endo():
    L = cl.l_endo()
    assert np.max(np.abs(L - L.T)) == 0.0
    assert np.max(np.abs(L @ L - np.eye(24))) < 1e-13
    ev = np.linalg.eigvalsh(L)
    assert np.max(np.abs(np.abs(ev) - 1.0)) < 1e-12


def test_q_l_commute():
    q, L = cl.q_endo(), cl.l_endo()
    assert np.max(np.abs(q @ L - L @ q)) < 1e-13


def test_y_automorphism():
    y = cl.y_auto_8()
    assert np.array_equal(y @ y, -np.eye(8))
    # componentwise form: (b, bt, c, ct) -> (-c, ct, b, -bt)
    want = np.zeros((8, 8))
    for i in range(3):
        want[i, i + 4] = -1.0
        want[i + 4, i] = 1.0
    want[3, 7] = 1.0
    want[7, 3] = -1.0
    assert np.array_equal(y, want)


def test_u_endo():
    assert np.array_equal(cl.u_endo(1.0, 0.0, 0.0), np.eye(8))
    u = cl.u_endo(0.3, 2.0, -0.7)
    assert np.max(np.abs(u.T @ u - np.eye(8))) < 1e-14
    with pytest.raises(ValueError):
        cl.u_endo(0.0, 0.0, 0.0)


def test_u_endo_batched():
    rng = np.random.default_rng(6)
    q = rng.normal(size=(4, 5, 3))
    u = cl.u_endo(q[..., 0], q[..., 1], q[..., 2])
    assert u.shape == (4, 5, 8, 8)
    for idx in np.ndindex(4, 5):
        assert np.array_equal(u[idx], cl.u_endo(*q[idx]))
    with pytest.raises(ValueError):
        cl.u_endo(np.array([1.0, 0.0]), 0.0, 0.0)


@pytest.mark.parametrize("t", [1.0, 2.0, 0.37])
def test_nahm_pole_spectrum(t):
    evs, mult = cl.nahm_pole_spectrum(t)
    want = {-2.0 / t: 4, -1.0 / t: 8, 1.0 / t: 8, 2.0 / t: 4}
    assert set(np.round(list(mult.keys()), 12)) == set(np.round(list(want.keys()), 12))
    assert sum(mult.values()) == 24
    assert list(mult.values()) == [4, 8, 8, 4]
    target = np.sort(np.repeat(sorted(want), [4, 8, 8, 4]))
    assert np.max(np.abs(np.sort(evs) - target)) < 1e-10


def test_nahm_pole_domain():
    with pytest.raises(ValueError):
        cl.nahm_pole_endo(-1.0)


def _background(seed):
    rng = np.random.default_rng(seed)
    return 0.3 * rng.normal(size=(3, 3)), 0.3 * rng.normal(size=(3, 3))


def test_fiber_symbol_trivial_background_spectrum():
    # +-|k| with multiplicity 12 each on the 24-dim fiber, 0 at k = 0
    ks = k_lattice(2)
    ev = np.linalg.eigvalsh(cl.fiber_symbol(ks))
    norms = np.linalg.norm(ks, axis=1)
    assert np.max(np.abs(ev[norms == 0])) == 0.0
    nonzero = norms > 0
    assert np.max(np.abs(np.abs(ev[nonzero]) - norms[nonzero, None])) < 1e-14
    assert np.all(np.sum(ev[nonzero] > 0, axis=1) == 12)
    assert np.all(np.sum(ev[nonzero] < 0, axis=1) == 12)
    # the gap, the smallest nonzero |eigenvalue|, is 2 pi / L at |k| = 1
    ev5 = np.abs(np.linalg.eigvalsh(cl.fiber_symbol(ks[nonzero], L=5.0)))
    assert ev5.min() == pytest.approx(2 * math.pi / 5.0, rel=1e-14)


@pytest.mark.parametrize("k_max,L", [(1, 2 * math.pi), (2, 2 * math.pi), (2, 5.0)],
                         ids=["k1", "k2", "k2-L5"])
def test_batched_fiber_symbol_equals_per_mode(k_max, L):
    ks = k_lattice(k_max)
    A0, a0 = _background(k_max)
    for bg in ({}, {"A0": A0}, {"A0": A0, "a0": a0}):
        batch = cl.fiber_symbol(ks, L=L, **bg)
        assert batch.shape == (len(ks), 24, 24)
        assert np.array_equal(batch, np.stack([cl.fiber_symbol(k, L=L, **bg) for k in ks]))
        assert np.array_equal(cl.fiber_symbol(ks[:24].reshape(4, 6, 3), L=L, **bg),
                              batch[:24].reshape(4, 6, 24, 24))
    # at the trivial background it is the 8x8 mode symbol times 1 on su(2)
    want = np.stack([np.kron(cl.symbol(k, L), np.eye(3)) for k in ks])
    assert np.array_equal(cl.fiber_symbol(ks, L=L), want)


def test_fiber_symbol_is_hermitian():
    A0, a0 = _background(5)
    ks = np.random.default_rng(6).normal(size=(10, 3))
    m = cl.fiber_symbol(ks, A0, a0, L=3.0)
    assert np.array_equal(m, m.conj().swapaxes(-1, -2))


def test_fiber_symbol_acts_as_the_operator_formula():
    # sum_i gamma_i (i w k_i psi + [A0_i, psi]) + sum_i rho_i [a0_i, psi] on
    # an (8, 3) spinor value, through the 2x2-free coefficient bracket
    A0, a0 = _background(7)
    k, L = np.array([0.3, 1.7, -0.4]), 4.0
    psi = np.random.default_rng(8).normal(size=(8, 3))
    w = 2 * math.pi / L
    gamma, rho = np.array(cl.GAMMA), np.array(cl.RHO)
    want = sum(gamma[i] @ (1j * w * k[i] * psi + coeff_bracket(A0[i], psi))
               + rho[i] @ coeff_bracket(a0[i], psi) for i in range(3))
    got = (cl.fiber_symbol(k, A0, a0, L) @ psi.reshape(24)).reshape(8, 3)
    assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("k", [(1, 0, 0), (1, 2, -1), (0.3, 1.7, -0.4)])
def test_pole_symbol_anticommutes_with_the_spatial_symbol(k):
    # D = d_t + S + P/t on the mode k at the Nahm pole: S P + P S = 0 and
    # S^2 = |k|^2, so S maps each eigenspace E_p of P onto E_{-p}
    S = cl.fiber_symbol(np.array(k, dtype=float))
    P = cl.fiber_symbol(np.zeros(3), a0=-np.eye(3) / 2)
    assert np.array_equal(P, cl.nahm_pole_endo(1.0))
    assert np.max(np.abs(S @ P + P @ S)) == 0.0
    assert np.max(np.abs(S @ S - np.dot(k, k) * np.eye(24))) <= 1e-14
