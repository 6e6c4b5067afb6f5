import functools
import math

import numpy as np
import pytest

from kwlab.modes import (
    AA_SLOTS, ContractionError, ModeVector, decaying_sector, from_grid, k_lattice,
    kuranishi_w, linearized_decay, positive_spectrum_field, quadratic_map_grid,
    random_mode_vector, symbol,
)
from kwlab.torus import comm, stencil_symbol

# the Levi-Civita symbol: eps_ijk = (i - j)(j - k)(k - i) / 2 on {0, 1, 2}
EPS = np.fromfunction(lambda i, j, k: (i - j) * (j - k) * (k - i) / 2, (3, 3, 3))


def _direct_grid(mv, N):
    """The per-mode exponential sum that the inverse FFT replaces."""
    xs = np.arange(N) * (mv.L / N)
    X = np.meshgrid(xs, xs, xs, indexing="ij")
    out = np.zeros((8, 3, N, N, N), dtype=complex)
    for c, k in zip(mv.coeffs, mv.ks):
        phase = np.exp(1j * (2 * math.pi / mv.L) * (k[0] * X[0] + k[1] * X[1] + k[2] * X[2]))
        out += c[..., None, None, None] * phase
    return out.real


def _quadratic_map_eps(psi):
    """The # coupling summed over all 27 EPS entries, skipping the zeros."""
    b, bt, c, ct = psi[0:3], psi[3], psi[4:7], psi[7]
    out = np.zeros_like(psi)
    for i in range(3):
        pi = -comm(b[i], bt, axis=0) + comm(c[i], ct, axis=0)
        qi = -comm(b[i], ct, axis=0) - comm(c[i], bt, axis=0)
        for j in range(3):
            for k in range(3):
                e = EPS[i, j, k]
                if e == 0.0:
                    continue
                pi = pi - e * comm(b[j], c[k], axis=0)
                qi = qi - 0.5 * e * (comm(b[j], b[k], axis=0) - comm(c[j], c[k], axis=0))
        out[i] = pi
        out[4 + i] = qi
    qt = comm(bt, ct, axis=0)
    for i in range(3):
        qt = qt + comm(b[i], c[i], axis=0)
    out[7] = qt
    return out


def test_k_lattice():
    ks = k_lattice(1)
    assert len(ks) == 27
    assert (ks.min(), ks.max()) == (-1, 1)


def test_mode_vector_reality_and_grid():
    rng = np.random.default_rng(1)
    mv = random_mode_vector(rng, 1)
    assert mv.reality_defect() < 1e-15
    grid = mv.to_grid(8)
    assert grid.shape == (8, 3, 8, 8, 8)
    back = from_grid(grid, k_lattice(1))
    assert np.max(np.abs(back.coeffs - mv.coeffs)) < 1e-12
    # Parseval
    vol = (2 * math.pi) ** 3
    assert mv.norm() ** 2 == pytest.approx(np.mean(grid ** 2) * grid[0, 0].size *
                                           vol / 8 ** 3 * 3 * 8, rel=1e-10) or True
    assert mv.norm() ** 2 == pytest.approx(vol * np.mean(np.sum(grid ** 2, axis=(0, 1))),
                                           rel=1e-10)


@pytest.mark.parametrize("N", [2, 4, 5, 8])
def test_to_grid_matches_the_direct_sum(N):
    # at N = 2 the wavevectors k = +-1 alias onto one grid frequency and add
    rng = np.random.default_rng(10 + N)
    mv = random_mode_vector(rng, 1)
    want = _direct_grid(mv, N)
    assert np.max(np.abs(mv.to_grid(N) - want)) <= 1e-14 * np.max(np.abs(want))


def test_to_grid_rejects_a_complex_field():
    ks = k_lattice(1)
    coeffs = np.zeros((len(ks), 8, 3), complex)
    coeffs[0, 0, 0] = 1e-20j  # no conjugate partner: the grid field is complex
    with pytest.raises(ValueError, match="reality"):
        ModeVector(ks, coeffs).to_grid(4)


def test_symbol_of_a_stack_is_the_stack_of_symbols():
    ks = k_lattice(2)
    want = np.stack([symbol(k) for k in ks])
    assert np.array_equal(symbol(ks), want)
    assert np.array_equal(symbol(ks.reshape(5, 25, 3), 3.0),
                          np.stack([symbol(k, 3.0) for k in ks]).reshape(5, 25, 8, 8))


def test_quadratic_map_matches_the_eps_sum():
    rng = np.random.default_rng(11)
    psi = rng.normal(size=(8, 3, 4, 4, 4))
    want = _quadratic_map_eps(psi)
    assert np.max(np.abs(quadratic_map_grid(psi) - want)) <= 1e-15 * np.max(np.abs(want))


def _quadratic_map_per_bracket(psi):
    """quadratic_map_grid as one comm call per bracket, 28 in all, added
    left to right in each slot."""
    b, bt, c, ct = psi[0:3], psi[3], psi[4:7], psi[7]
    out = np.zeros_like(psi)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[i] = (-comm(b[i], bt, axis=0) + comm(c[i], ct, axis=0)
                  - comm(b[j], c[k], axis=0) + comm(b[k], c[j], axis=0))
        out[4 + i] = (-comm(b[i], ct, axis=0) - comm(c[i], bt, axis=0)
                      - comm(b[j], b[k], axis=0) + comm(c[j], c[k], axis=0))
    out[7] = (comm(bt, ct, axis=0) + comm(b[0], c[0], axis=0) + comm(b[1], c[1], axis=0)
              + comm(b[2], c[2], axis=0))
    return out


@pytest.mark.parametrize("N", [4, 5])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_stacked_quadratic_map_is_the_per_bracket_sum(N, kind):
    # one comm on the 28 stacked operand pairs gives each bracket's floats,
    # and each slot adds them in the per-bracket order: bit for bit, signed
    # zeros included (a zero slab makes exact-zero brackets)
    rng = np.random.default_rng(N)
    psi = rng.normal(size=(8, 3, N, N, N))
    if kind == "complex":
        psi = psi + 1j * rng.normal(size=psi.shape)
    psi[:, :, 0] = 0.0
    psi[:, :, 1] = -psi[:, :, 1] * 0.0
    got, want = quadratic_map_grid(psi), _quadratic_map_per_bracket(psi)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def test_symbol_eigenvalues():
    s = symbol(np.array([1, 0, 0]))
    ev = np.linalg.eigvalsh(s)
    assert np.allclose(np.abs(ev), 1.0)
    s2 = symbol(np.array([1, 1, 0]))
    assert np.allclose(np.abs(np.linalg.eigvalsh(s2)), math.sqrt(2))


def test_linearized_decay_zero_mode_guard():
    rng = np.random.default_rng(2)
    mv = random_mode_vector(rng, 1)
    mv.coeffs[[tuple(k) for k in mv.ks].index((0, 0, 0))] = rng.normal(size=(8, 3))
    with pytest.raises(ValueError):
        linearized_decay(1, mv, T=1.0, dt=0.1)


def test_linearized_decay_single_mode():
    rng = np.random.default_rng(3)
    ks = k_lattice(1)
    idx = {tuple(k): i for i, k in enumerate(ks)}
    coeffs = np.zeros((len(ks), 8, 3), complex)
    evals, vecs = np.linalg.eigh(symbol(np.array([1, 0, 0])))
    vplus = vecs[:, int(np.argmax(evals))]
    amp = rng.normal(size=3) + 1j * rng.normal(size=3)
    coeffs[idx[(1, 0, 0)]] = vplus[:, None] * amp[None, :]
    coeffs[idx[(-1, 0, 0)]] = coeffs[idx[(1, 0, 0)]].conj()
    out = linearized_decay(1, ModeVector(ks, coeffs), T=3.0, dt=0.05)
    fp = out["f_plus"]
    assert np.max(np.abs(fp - fp[0] * np.exp(-out["times"]))) < 1e-8
    assert np.max(out["f_minus"]) < 1e-12


def test_linearized_decay_mixed_rate():
    rng = np.random.default_rng(4)
    mv = random_mode_vector(rng, 1)
    out = linearized_decay(1, mv, T=2.0, dt=0.05)
    rate = -np.diff(np.log(out["f_plus"])) / np.diff(out["times"])
    assert np.all(rate >= 1.0 - 1e-9)  # lambda_1 = 1 on the side-2pi torus
    # the negative part grows
    assert out["f_minus"][-1] > out["f_minus"][0]


def test_linearized_decay_pure_negative_grows():
    rng = np.random.default_rng(5)
    ks = k_lattice(1)
    idx = {tuple(k): i for i, k in enumerate(ks)}
    coeffs = np.zeros((len(ks), 8, 3), complex)
    evals, vecs = np.linalg.eigh(symbol(np.array([0, 1, 0])))
    vminus = vecs[:, int(np.argmin(evals))]
    coeffs[idx[(0, 1, 0)]] = vminus[:, None] * (1.0 + 0.5j)
    coeffs[idx[(0, -1, 0)]] = coeffs[idx[(0, 1, 0)]].conj()
    out = linearized_decay(1, ModeVector(ks, coeffs), T=2.0, dt=0.1)
    fm = out["f_minus"]
    assert np.max(np.abs(fm - fm[0] * np.exp(out["times"]))) < 1e-8


# k_lattice(2), a generic k, and fd4's k~ at k = (1, 2, 0) and (1, -1, 1), N = 12:
# the second is parallel to its k, the first is not
SECTOR_KS = np.concatenate([
    k_lattice(2)[np.any(k_lattice(2), axis=1)],
    [(0.3, 1.7, -0.4)],
    stencil_symbol("fd4", 12, 2 * math.pi, np.array([(1, 2, 0), (1, -1, 1)])),
])


def _eigh_projectors(S):
    """The +- eigenspace projectors of a stack of Hermitian S, from eigh."""
    ev, V = np.linalg.eigh(S)
    cut = 1e-9 * np.max(np.abs(ev), axis=-1, keepdims=True)
    out = []
    for sign in (1, -1):
        Vs = V * (sign * ev > cut)[..., None, :]
        out.append(Vs @ Vs.conj().transpose(0, 2, 1))
    return out


@pytest.mark.parametrize("L", [2 * math.pi, 1e14, 1e200])
@pytest.mark.parametrize("slots", [slice(None), AA_SLOTS])
def test_decaying_sector_matches_eigh_projectors(L, slots):
    rate, p_plus, p_minus = decaying_sector(SECTOR_KS, L, slots)
    S = symbol(SECTOR_KS, L)[:, slots][:, :, slots]
    for p, want in zip((p_plus, p_minus), _eigh_projectors(S)):
        assert np.max(np.abs(p - want)) <= 1e-14
    lam = 2 * math.pi / L * np.linalg.norm(SECTOR_KS, axis=1)
    assert np.max(np.abs(rate - lam) / lam) <= 1e-14
    # idempotent, mutually orthogonal, and eigenvectors of S at +-lambda
    for p, sign in ((p_plus, 1), (p_minus, -1)):
        assert np.max(np.abs(p @ p - p)) <= 1e-14
        assert np.max(np.abs(S / rate[:, None, None] @ p - sign * p)) <= 1e-14
    assert np.max(np.abs(p_plus @ p_minus)) <= 1e-14
    # rank 4 of 8 on all slots, 2 of 6 on the (A, a) slots
    rank = {8: 4, 6: 2}[S.shape[-1]]
    assert np.allclose(np.trace(p_plus, axis1=1, axis2=2), rank, atol=1e-14, rtol=0)


@pytest.mark.parametrize("slots", [slice(None), AA_SLOTS])
def test_decaying_sector_is_zero_at_k_zero(slots):
    rate, p_plus, p_minus = decaying_sector(np.zeros((2, 3)), slots=slots)
    assert np.all(rate == 0.0)
    assert np.all(p_plus == 0.0) and np.all(p_minus == 0.0)


def test_linearized_decay_at_large_torus_side():
    # one plane wave at k = +-e1, every slot 1: S has zero diagonal, so the
    # norm splits evenly between the sectors, whatever the rate (6.3e-14
    # at L = 1e14, under the absolute eigenvalue cut of an eigh split)
    ks = np.array([(1, 0, 0), (-1, 0, 0)])
    mv = ModeVector(ks, np.ones((2, 8, 3), complex), L=1e14)
    out = linearized_decay(1, mv, T=1.0, dt=0.5)
    want = mv.norm() / math.sqrt(2)
    for f in (out["f_plus"][0], out["f_minus"][0]):
        assert abs(f - want) <= 1e-14 * want


def test_positive_spectrum_field_rejects_k_zero():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        positive_spectrum_field(rng, 8, 1.0, modes=[(0, 0, 0)])
    with pytest.raises(ValueError):
        positive_spectrum_field(rng, 8, 1.0, modes=[(1, 0, 0), (0, 0, 0)])


def test_quadratic_map_structure():
    rng = np.random.default_rng(6)
    psi = rng.normal(size=(8, 3, 4, 4, 4))
    out = quadratic_map_grid(psi)
    assert np.max(np.abs(out[3])) == 0.0  # the pt slot has no quadratic part
    # hand value of the qt slot at one point
    p = (0, 0, 0)
    want = comm(psi[3][(slice(None),) + p], psi[7][(slice(None),) + p])
    for i in range(3):
        want = want + comm(psi[i][(slice(None),) + p], psi[4 + i][(slice(None),) + p])
    assert np.max(np.abs(out[7][(slice(None),) + p] - want)) < 1e-12


def test_kuranishi_zero_input():
    ks = k_lattice(1)
    phi = ModeVector(ks, np.zeros((len(ks), 8, 3), complex))
    w, diag = kuranishi_w(phi, 1)
    assert w.norm() == 0.0
    assert diag["fixed_point_residual"] < 1e-14


def test_kuranishi_constant_kernel_input_degenerates():
    # constant 1-form-slot inputs have constant quadratic image, which the
    # kernel projection removes: the fixed point is exactly zero
    ks = k_lattice(1)
    idx = {tuple(k): i for i, k in enumerate(ks)}
    coeffs = np.zeros((len(ks), 8, 3), complex)
    coeffs[idx[(0, 0, 0)], 0] = [0.05, 0.0, 0.0]
    coeffs[idx[(0, 0, 0)], 5] = [0.0, 0.04, 0.0]
    w, diag = kuranishi_w(ModeVector(ks, coeffs), 1)
    assert w.norm() == 0.0
    assert diag["fixed_point_residual"] == 0.0


def test_kuranishi_quadratic_scaling():
    rng = np.random.default_rng(7)
    phi = random_mode_vector(rng, 1, scale=0.02, slots=[0, 1, 2, 4, 5, 6])
    norms, pnorms = [], []
    for s in [2.0 ** -j for j in range(1, 7)]:
        p = ModeVector(phi.ks, phi.coeffs * s, phi.L)
        w, diag = kuranishi_w(p, 1)
        assert diag["max_ratio"] < 1.0
        assert diag["fixed_point_residual"] < 1e-10
        assert diag["w_norm"] <= diag["kappa"] * diag["phi_norm"] ** 2 * (1 + 1e-12)
        norms.append(diag["w_norm"])
        pnorms.append(diag["phi_norm"])
    slope = np.polyfit(np.log(pnorms), np.log(norms), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_kuranishi_develops_function_slots():
    # 1-form inputs may produce bt/ct content in the fixed point
    rng = np.random.default_rng(8)
    phi = random_mode_vector(rng, 1, scale=0.01, slots=[0, 1, 2, 4, 5, 6])
    w, _ = kuranishi_w(phi, 1)
    assert float(np.max(np.abs(w.coeffs[:, [3, 7]]))) > 0.0


def test_kuranishi_reads_the_lattice_and_builds_the_index_once(monkeypatch):
    # the iteration reads one k_lattice; only reality_defect and
    # zero_mode_norm read a ModeVector's {k: row} index, so the call builds
    # at most one (the input's), where each image built two
    from kwlab import modes

    phi = random_mode_vector(np.random.default_rng(0), 1, scale=0.01, slots=AA_SLOTS)
    lattices, indexed = [], []
    monkeypatch.setattr(modes, "k_lattice", lambda k_max: lattices.append(k_max)
                        or k_lattice(k_max))
    index = ModeVector._index.func

    def counted(mv):
        indexed.append(mv)
        return index(mv)

    prop = functools.cached_property(counted)
    prop.__set_name__(ModeVector, "_index")
    monkeypatch.setattr(ModeVector, "_index", prop)
    _, diag = kuranishi_w(phi, 1)
    assert diag["iterations"] > 10
    assert lattices == [1] and len(indexed) <= 1


def test_kuranishi_input_validation():
    rng = np.random.default_rng(9)
    bad = random_mode_vector(rng, 1, slots=range(8))
    with pytest.raises(ValueError):
        kuranishi_w(bad, 1)


def test_kuranishi_contraction_failure():
    rng = np.random.default_rng(10)
    phi = random_mode_vector(rng, 1, scale=40.0, slots=[0, 1, 2, 4, 5, 6])
    with pytest.raises(ContractionError) as exc:
        kuranishi_w(phi, 1)
    assert exc.value.observed_lipschitz >= 1.0


def test_positive_spectrum_field_decays():
    from kwlab.flow import FlowConfig, run_flow
    from kwlab.suites import flow_checks

    def monotone_cs(trace):
        return {c.check_id: c for c in flow_checks(trace)}["monotone_cs"]

    rng = np.random.default_rng(11)
    # the nonabelian quadratic terms feed growing modes at second order, so
    # keep the nonabelian check on a short horizon
    F = positive_spectrum_field(rng, 8, amplitude=1e-3)
    tr = run_flow(F, FlowConfig(dt=0.05 * F.h, steps=60))
    assert monotone_cs(tr).status == "pass"
    assert tr.sup_a[-1] < 0.5 * tr.sup_a[0]
    # the abelian sector is exactly linear: clean decay over a long run
    Fa = positive_spectrum_field(rng, 8, amplitude=0.02, abelian=True)
    assert np.max(np.abs(Fa.A[:, :2])) == 0.0  # only sigma3 content
    tra = run_flow(Fa, FlowConfig(dt=0.05 * Fa.h, steps=300))
    assert monotone_cs(tra).status == "pass"
    assert tra.sup_a[-1] < 0.05 * tra.sup_a[0]
