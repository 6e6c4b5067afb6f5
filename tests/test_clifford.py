import numpy as np
import pytest

from kwlab import clifford as cl


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
    with pytest.raises(AssertionError, match="gamma1 antisymmetric"):
        cl.assert_relations()


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
