import json
import math

import numpy as np
import pytest

from kwlab import backgrounds
from kwlab import operator as op
from kwlab.algebra import (
    SIGMA, bracket, coeff_bracket, coeff_norm, coeffs_to_su2, norm, su2_to_coeffs,
)
from kwlab.backgrounds import (
    ModelBackground, NahmBackground, TorusTrigBackground, TrivialBackground,
    make_background,
)
from kwlab.cli import main
from kwlab.clifford import GAMMA, RHO, u_endo
from kwlab.suites import operator_suite, run_suite

RNG = np.random.default_rng(0)
# the generators as float matrices, whose products the signed gathers reproduce
GAMMA_F = tuple(g.astype(float) for g in GAMMA)
RHO_F = tuple(r.astype(float) for r in RHO)


def random_points(rng, center, n=40):
    return np.column_stack([
        center[0] + rng.uniform(-0.2, 0.2, n),
        center[1] + rng.uniform(-0.2, 0.2, n),
        center[2] + rng.uniform(-0.2, 0.2, n),
        rng.uniform(0, 2 * math.pi, n),
    ])


def _spatial(bg, sec, P, h):
    """D minus its grad_t term (the symmetric spatial part) at P."""
    val, grads, _, a = op.covariant_grads(bg, sec, P, h)
    return op._assemble_clifford(val, grads, a, dt_sign=0.0)


def _to_mat(c):
    """coeffs_to_su2 over the leading axes: (..., 3) -> (..., 2, 2)."""
    c = np.asarray(c)
    out = np.empty(c.shape[:-1] + (2, 2), dtype=complex)
    for idx in np.ndindex(c.shape[:-1]):
        out[idx] = coeffs_to_su2(c[idx])
    return out


def _coeff_pair(rng, shape_u, shape_v, complex_):
    u = rng.normal(size=shape_u)
    v = rng.normal(size=shape_v)
    if complex_:
        u = u + 1j * rng.normal(size=shape_u)
        v = v + 1j * rng.normal(size=shape_v)
    return u, v


COMM_SHAPES = [
    ((3,), (3,), False),
    ((5, 8, 3), (5, 8, 3), False),
    ((4, 3), (4, 3), True),
    ((2, 1, 3), (1, 8, 3), False),
    ((6, 1, 3), (6, 8, 3), True),
]


@pytest.mark.parametrize("shape_u,shape_v,complex_", COMM_SHAPES)
def test_comm_matches_matrix_bracket(shape_u, shape_v, complex_):
    u, v = _coeff_pair(np.random.default_rng(2), shape_u, shape_v, complex_)
    got = op.comm(u, v)
    assert got.shape == np.broadcast_shapes(u.shape, v.shape)
    assert got.dtype == (complex if complex_ else float)
    np.testing.assert_allclose(_to_mat(got), bracket(_to_mat(u), _to_mat(v)),
                               rtol=1e-14, atol=1e-14)


def test_comm_sign_slip_is_caught():
    # the oracle above can fail: [v, u] = -[u, v] is far from the bracket
    u, v = _coeff_pair(np.random.default_rng(3), (5, 8, 3), (5, 8, 3), False)
    ref = bracket(_to_mat(u), _to_mat(v))
    assert np.max(np.abs(_to_mat(op.comm(v, u)) - ref)) > 1e-1 * np.max(np.abs(ref))


@pytest.mark.parametrize("complex_", [False, True])
def test_spinor_norms_match_trace(complex_):
    v, _ = _coeff_pair(np.random.default_rng(4), (5, 8, 3), (3,), complex_)
    want = norm(_to_mat(v))  # sqrt(1/2 trace(u^dag u)) per slot
    np.testing.assert_allclose(coeff_norm(v), want, rtol=1e-14)
    assert op.spinor_max(v) == pytest.approx(float(np.max(want)), rel=1e-14)


def test_x_matrix24_matches_ad_matrix():
    bg = ModelBackground(2)
    p = np.array([0.8, 0.5, -0.6, 0.0])
    X = op.x_blocks(bg, p)
    X24 = op.x_matrix24(X)
    scale = np.max(np.abs(X24))
    for r in range(8):
        for s in range(8):
            # column a holds the coefficients of [X_rs, sigma_a]
            x = coeffs_to_su2(X[r, s])
            want = np.array([su2_to_coeffs(bracket(x, SIGMA[a])) for a in range(3)]).T
            np.testing.assert_allclose(X24[3 * r:3 * r + 3, 3 * s:3 * s + 3], want,
                                       rtol=0, atol=1e-14 * scale)
    # and the 24x24 matrix acts on a flattened spinor as apply_x does
    v = np.random.default_rng(5).normal(size=(8, 3))
    np.testing.assert_allclose(op.apply_x(X, v).ravel(), X24 @ v.ravel(),
                               rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("bg,center", [
    (TrivialBackground(), (1.0, 0.0, 0.0)),
    (NahmBackground(), (1.0, 0.0, 0.0)),
    (ModelBackground(1), (1.0, 0.7, 0.4)),
    (ModelBackground(3), (0.8, -0.5, 0.6)),
])
def test_three_depictions_agree(bg, center):
    rng = np.random.default_rng(5)
    sec = op.random_section(rng, center=center, spread=0.25)
    P = random_points(rng, center)
    # one covariant jet through every depiction, as the suite's row reads it;
    # apply_D is the Clifford contraction of that jet
    val, grads, _, a = op.covariant_grads(bg, sec, P, 1e-5)
    outs = [op.DEPICTIONS[d](val, grads, a) for d in ("components", "matrix", "clifford")]
    scale = max(op.spinor_max(outs[1]), 1e-30)
    assert op.spinor_max(outs[0] - outs[1]) / scale < 1e-12
    assert op.spinor_max(outs[2] - outs[1]) / scale < 1e-12
    assert np.array_equal(op.apply_D(bg, sec, P, 1e-5), outs[2])


def test_constant_section_trivial_background():
    val = RNG.normal(size=(8, 3))
    sec = op.FuncSection(lambda P: np.broadcast_to(val, P.shape[:-1] + (8, 3)).copy())
    out = op.apply_D(TrivialBackground(), sec, np.array([1.0, 0.2, 0.3, 0.4]), 1e-5)
    assert op.spinor_max(out) == 0.0
    outd = op.apply_D_dagger(TrivialBackground(), sec, np.array([1.0, 0.2, 0.3, 0.4]), 1e-5)
    assert op.spinor_max(outd) == 0.0


def test_nahm_ct_coupling_by_hand():
    xi = np.zeros((8, 3))
    xi[7] = (1.0, 0.0, 0.3)  # sigma1 + 0.3 sigma3
    sec = op.FuncSection(lambda P: np.broadcast_to(xi, P.shape[:-1] + (8, 3)).copy())
    t = 0.7
    out = op.apply_D(NahmBackground(), sec, np.array([t, 0.1, -0.2, 0.3]), 1e-5)
    want = np.zeros_like(out)
    xi7 = coeffs_to_su2(xi[7])
    for k in range(3):
        ak = -SIGMA[k] / (2 * t)
        want[k] = su2_to_coeffs(ak @ xi7 - xi7 @ ak)
    assert op.spinor_max(out - want) < 1e-12


def test_d_plus_ddagger_kills_time_derivative():
    rng = np.random.default_rng(9)
    bg = NahmBackground()
    sec = op.random_section(rng, center=(1.0, 0.0, 0.0), spread=0.3)
    p = np.array([1.1, 0.1, -0.3, 0.2])
    total = op.apply_D(bg, sec, p, 1e-5) + op.apply_D_dagger(bg, sec, p, 1e-5)
    spatial = _spatial(bg, sec, p, 1e-5)
    assert op.spinor_max(total - 2 * spatial) < 1e-12


# a torus-trig background with live A and a terms
DUALITY_TERMS = [
    ("A", 0, (0, 1, 0), 0.3, (0.0, 0.0, 0.2)),
    ("a", 2, (1, 0, 0), 0.0, (0.0, 0.0, 0.3)),
    ("a", 0, (0, 0, 1), 1.1, (0.1, 0.0, 0.0)),
]


def test_duality_quadrature():
    rng = np.random.default_rng(12)
    bgt = TorusTrigBackground(DUALITY_TERMS)
    psi = op.random_torus_section(rng, k_max=1, n_terms=3, t_center=2.0, t_width=0.35)
    eta = op.random_torus_section(rng, k_max=1, n_terms=3, t_center=2.0, t_width=0.35)
    assert op.duality_gap(bgt, psi, eta, t_range=(0.0, 4.0), nt=40, nx=8) < 1e-6
    # finite-difference derivative route stays within quadrature tolerance
    assert op.duality_gap(bgt, psi, eta, t_range=(0.0, 4.0), nt=40, nx=8, h=1e-5) < 1e-6


def _pair(u, v):
    """Pointwise spinor pairing sum_slots <u_s, v_s> (Hermitian form):
    1/2 trace(u_s^dag v_s) = sum_a conj(u_sa) v_sa in the sigma basis."""
    return np.sum((u.conj() * v).real, axis=(-2, -1))


def _trapezoid(f, wt, vol_x) -> float:
    """Trapezoid in t (weights wt on the leading axis) times the periodic cell volume."""
    return float(np.sum(np.einsum("t...,t->t...", f, wt)) * vol_x)


def _two_slice_loops(bg, psi, xi, t_range, nt, nx, h):
    """box_quadrature's two results from the form it replaces: one slice loop
    per check, each taking covariant_grads and _assemble_clifford per slice
    of the box's (t, x) grid, and the pair densities summed in t then x."""
    t, wt, x, vol_x = op._box_grid(t_range, nt, nx)
    P = np.concatenate([np.broadcast_to(t[:, None, None], (nt, len(x), 1)),
                        np.broadcast_to(x, (nt,) + x.shape)], axis=-1)
    dual = np.empty((4,) + P.shape[:-1])
    for i, Q in enumerate(P):
        psival, grads, _, a = op.covariant_grads(bg, psi, Q, h)
        dpsi = op._assemble_clifford(psival, grads, a)
        xival, grads, _, _ = op.covariant_grads(bg, xi, Q, h)
        ddagxi = op._assemble_clifford(xival, grads, a, dt_sign=-1.0)
        dual[:, i] = (_pair(dpsi, xival), _pair(psival, ddagxi),
                      _pair(dpsi, dpsi), _pair(xival, xival))
    pyth = np.empty((3,) + P.shape[:-1])
    for i, Q in enumerate(P):
        val, grads, _, a = op.covariant_grads(bg, psi, Q, h)
        dpsi = op._assemble_clifford(val, grads, a)
        lpsi = op._assemble_clifford(val, grads, a, dt_sign=0.0)
        tpsi = grads[..., 0, :, :]
        pyth[:, i] = _pair(dpsi, dpsi), _pair(tpsi, tpsi), _pair(lpsi, lpsi)
    i1, i2, dpsi_sq, xi_sq = (_trapezoid(f, wt, vol_x) for f in dual)
    lhs, tpsi_sq, lpsi_sq = (_trapezoid(f, wt, vol_x) for f in pyth)
    rhs = tpsi_sq + lpsi_sq
    return {"duality_gap": abs(i1 - i2) / math.sqrt(dpsi_sq * xi_sq),
            "pythagoras": {"lhs": lhs, "rhs": rhs, "rel_gap": abs(lhs - rhs) / abs(lhs)}}


def _assert_box_near(got, want, tol):
    """lhs and rhs within tol relative, duality_gap and rel_gap within tol."""
    for side in ("lhs", "rhs"):
        assert abs(got["pythagoras"][side] / want["pythagoras"][side] - 1) <= tol, side
    assert abs(got["duality_gap"] - want["duality_gap"]) <= tol
    assert abs(got["pythagoras"]["rel_gap"] - want["pythagoras"]["rel_gap"]) <= tol


def _suite_box(monkeypatch):
    """Run the operator suite on the trivial background, counting calls;
    returns the suite's checks and its box_quadrature calls as (args, kwargs,
    _clifford_sums calls made inside, each one set of signed gathers)."""
    boxes, assembled = [], []
    box, assemble = op.box_quadrature, op._clifford_sums

    def recorded(*args, **kwargs):
        before = len(assembled)
        out = box(*args, **kwargs)
        boxes.append((args, kwargs, len(assembled) - before))
        return out

    def counted(*args, **kwargs):
        assembled.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(op, "box_quadrature", recorded)
    monkeypatch.setattr(op, "_clifford_sums", counted)
    checks = operator_suite(0, background="trivial", points=8)
    monkeypatch.undo()
    return checks, boxes


@pytest.mark.parametrize("data", ["suite", "torus-trig", "torus-trig-differenced"])
def test_box_pass_equals_two_slice_loops(monkeypatch, data):
    # the separated box adds the slice loops' trapezoid terms in another
    # order: with exact jets the two agree to 2.7e-16 relative (lhs, rhs) and
    # 2.3e-17 (duality_gap), and through differences at h = 1e-5, whose
    # quotients amplify the round-off by 1/h, to 7.2e-14
    if data == "suite":
        _, [((bg, psi, xi), kwargs, _)] = _suite_box(monkeypatch)
        box = dict(kwargs, h=None)
    else:
        rng = np.random.default_rng(12)
        bg = TorusTrigBackground(DUALITY_TERMS)
        psi = op.random_torus_section(rng, k_max=1, n_terms=3, t_center=2.0, t_width=0.35)
        xi = op.random_torus_section(rng, k_max=1, n_terms=3, t_center=2.0, t_width=0.35)
        box = dict(t_range=(0.0, 4.0), nt=40, nx=8,
                   h=1e-5 if data == "torus-trig-differenced" else None)
    tol = 1e-14 if box["h"] is None else 1e-12
    want = _two_slice_loops(bg, psi, xi, **box)
    got = op.box_quadrature(bg, psi, xi, **box)
    _assert_box_near(got, want, tol)
    assert op.duality_gap(bg, psi, xi, **box) == got["duality_gap"]
    if box["h"] is None:
        pythagoras = op.pythagoras_gap(bg, psi, box["t_range"], box["nt"], box["nx"])
        _assert_box_near({"duality_gap": 0.0, "pythagoras": pythagoras},
                         {"duality_gap": 0.0, "pythagoras": want["pythagoras"]}, tol)


def test_box_pass_call_counts(monkeypatch):
    # in one operator suite run the box makes two sets of signed gathers per
    # block of its 8^3 x-grid, whatever nt: psi's pieces, which give D psi
    # and L psi, and xi's, for D^dag xi
    checks, [(_, kwargs, n_assembled)] = _suite_box(monkeypatch)
    assert all(c.status == "pass" for c in checks)
    assert (kwargs["nt"], kwargs["nx"], op._BOX_BLOCK) == (40, 8, 128)
    assert n_assembled == 2 * 4


@pytest.mark.parametrize("refused", ["t-dependent background", "envelope reads x",
                                     "not a TrigSection"])
def test_box_refuses_what_does_not_separate(refused):
    # the box reads the background once and each term once: a background
    # that changes along t, an envelope over x, or a section known only by
    # its values would be integrated wrongly, so each is refused
    rng = np.random.default_rng(3)
    bg = TorusTrigBackground(DUALITY_TERMS)
    psi = op.random_torus_section(rng, k_max=1, n_terms=2, t_center=2.0, t_width=0.35)
    xi = psi
    if refused == "t-dependent background":
        bg = NahmBackground()
        message = "reads differently at the first and the last t-node"
    elif refused == "envelope reads x":
        xi = op.random_section(rng, center=(2.0, 0.0, 0.0))
        message = "envelope over 3 coordinates reads x"
    else:
        xi = op.FuncSection(psi.value)
        message = "not a FuncSection"
    with pytest.raises(ValueError, match=message) as raised:
        op.box_quadrature(bg, psi, xi, t_range=(0.5, 3.5), nt=5, nx=4)
    assert "\n" not in str(raised.value)


def _per_term_fields(terms, P, i=None):
    """A and a of TorusTrigBackground terms summed term by term, or with
    i = 0, 1, 2 their plain derivatives along x_{i+1}."""
    out = {"A": np.zeros(P.shape[:-1] + (3, 3)), "a": np.zeros(P.shape[:-1] + (3, 3))}
    for slot, comp, k, phase, coeffs in terms:
        arg = P[..., 1] * k[0] + P[..., 2] * k[1] + P[..., 3] * k[2] + phase
        w = np.cos(arg) if i is None else -np.sin(arg) * k[i]
        out[slot][..., comp, :] += w[..., None] * np.asarray(coeffs, float)
    return out["A"], out["a"]


def test_torus_background_equals_its_per_term_sum():
    # on dyadic points and phases with integer k every argument k.x + phase
    # is exact in any order of summation, so the stacked section has to give
    # the per-term sums bit for bit
    rng = np.random.default_rng(8)
    terms = [(slot, int(rng.integers(3)), tuple(int(c) for c in rng.integers(-2, 3, 3)),
              rng.integers(0, 50) / 8, tuple(rng.normal(size=3))) for slot in "AaAaAa"]
    P = rng.integers(0, 64, size=(6, 7, 4)) / 8
    bg = TorusTrigBackground(terms)
    A, a = _per_term_fields(terms, P)
    (dA1, da1), (dA2, da2) = _per_term_fields(terms, P, 0), _per_term_fields(terms, P, 1)
    fA, fa = bg.fields(P)
    assert np.array_equal(fA, A) and np.array_equal(fa, a)
    xa, e1, e2, b3, dcov = bg.x_fields(P)
    assert np.array_equal(xa, a)
    assert not np.any(e1) and not np.any(e2)
    assert np.array_equal(b3, dA1[..., 1, :] - dA2[..., 0, :]
                          + coeff_bracket(A[..., 0, :], A[..., 1, :]))
    for i, da in enumerate((da1, da2)):
        for j in range(2):
            assert np.array_equal(dcov[..., i, j, :],
                                  da[..., j, :] + coeff_bracket(A[..., i, :], a[..., j, :]))


_ASSEMBLE = op._assemble_clifford


def _flipped_gamma_adjoint(val, grads, a, dt_sign=1.0, skip_gamma3=False):
    """D^dag assembled as -grad_t - gamma_i grad_i + rho_i [a_i, .]: a wrong adjoint."""
    if dt_sign == -1.0:
        grads = grads.copy()
        grads[..., 1:, :, :] *= -1.0
    return _ASSEMBLE(val, grads, a, dt_sign, skip_gamma3)


def _d_for_d_dagger(val, grads, a, dt_sign=1.0, skip_gamma3=False):
    """D^dag assembled as D."""
    return _ASSEMBLE(val, grads, a, 1.0 if dt_sign == -1.0 else dt_sign, skip_gamma3)


@pytest.mark.parametrize("seed", [0, 1])
def test_adjoint_duality_check_catches_wrong_adjoint(seed, monkeypatch):
    # the wrong adjoint is planted in the assembly that apply_D_dagger and
    # duality_gap both run, so it changes the operator the lab applies
    def duality():
        report = operator_suite(seed, background="trivial", points=8)
        return next(c for c in report if c.check_id == "adjoint_duality")

    good = duality()
    assert good.status == "pass" and good.metric < 1e-10
    bg, p = TrivialBackground(), np.array([1.3, 0.2, 0.4, 0.6])
    sec = op.random_torus_section(np.random.default_rng(seed), k_max=1, n_terms=3,
                                  t_center=1.0, t_width=0.5)
    right = op.apply_D_dagger(bg, sec, p)
    for wrong_adjoint in (_d_for_d_dagger, _flipped_gamma_adjoint):
        monkeypatch.setattr(op, "_assemble_clifford", wrong_adjoint)
        assert not np.allclose(op.apply_D_dagger(bg, sec, p), right)
        bad = duality()
        assert bad.status == "fail" and bad.metric > 1e2 * bad.tolerance


@pytest.mark.parametrize("seed", [0, 1])
def test_every_check_is_a_finite_bound(tmp_path, seed):
    # every check of `kwlab all` reports a number against a tolerance, and
    # its status is exactly metric <= tolerance
    out = tmp_path / "all.json"
    assert main(["all", "--seed", str(seed), "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 125
    for c in checks:
        assert c["metric"] is not None and c["tolerance"] is not None, c["check_id"]
        assert (c["status"] == "pass") == (c["metric"] <= c["tolerance"]), c["check_id"]


def test_status_agrees_with_tolerance_at_small_scale(monkeypatch):
    # a check's status must follow its reported metric and tolerance when
    # checks fail too, including the blockwise Weitzenbock comparison: a 1%
    # error in every assembled remainder block flags all the nonzero ones
    reports = []
    block_report = op.bochner_block_report
    x_blocks = op.x_blocks

    def recorded(*args, **kwargs):
        reports.append(block_report(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(op, "bochner_block_report", recorded)
    monkeypatch.setattr(op, "x_blocks", lambda bg, P: 1.01 * x_blocks(bg, P))
    report = run_suite("operator", seed=1)
    for c in report.checks:
        assert (c.status == "pass") == (c.metric <= c.tolerance), c.check_id
    failed = {c.check_id for c in report.checks if c.status == "fail"}
    assert {"weitzenbock_remainder", "weitzenbock_blocks"} <= failed
    # most blocks are flagged here, which fails the check; the location names
    # the worst one and a count, not every flagged block
    blocks = next(c for c in report.checks if c.check_id == "weitzenbock_blocks")
    flagged = reports[0]["flagged_blocks"]
    worst = max(flagged, key=lambda b: b["relative_diff"])
    assert blocks.status == "fail" and len(flagged) > 1
    assert worst["relative_diff"] == blocks.metric
    assert blocks.worst_location == f"block {worst['block']}, {len(flagged)} flagged"
    assert len(blocks.worst_location) < 100


def test_pythagoras_split():
    rng = np.random.default_rng(13)
    bgt = TorusTrigBackground([("a", 1, (1, 0, 0), 0.4, (0.2, 0.0, 0.1))])
    psi = op.random_torus_section(rng, k_max=1, n_terms=4, t_center=2.0, t_width=0.35)
    rep = op.pythagoras_gap(bgt, psi, t_range=(0.0, 4.0), nt=48, nx=8)
    assert rep["rel_gap"] < 1e-9


@pytest.mark.parametrize("bg,center,tol", [
    (NahmBackground(), (1.0, 0.1, -0.2), 1e-5),
    (ModelBackground(1), (1.0, 0.7, 0.2), 1e-5),
])
def test_bochner_remainder(bg, center, tol):
    rng = np.random.default_rng(21)
    sec = op.random_section(rng, center=center, spread=0.3)
    p = np.array([center[0], center[1], center[2], 0.4])
    r1 = op.bochner_check(bg, sec, p, 1e-3)
    r2 = op.bochner_check(bg, sec, p, 5e-4)
    assert r1["residual"] / max(r1["scale"], 1e-30) < tol
    assert abs(r1["residual"] / max(r2["residual"], 1e-300) - 4.0) < 0.5


def test_bochner_blocks_clean():
    bg, p = ModelBackground(2), np.array([0.9, 0.6, -0.3, 0.0])
    rep = op.bochner_block_report(bg, p, op.x_blocks(bg, p))
    assert rep["flagged_blocks"] == []
    assert rep["worst_block_diff"] < 1e-3


def test_bochner_blocks_flag_small_scale_error(monkeypatch):
    # at p0 scaled by 100 every X entry is below 3e-4, so a relative error
    # must be measured against the blocks themselves, not against 1
    bg = ModelBackground(1)
    p = np.array([100.0, 70.0, 40.0, 0.3])
    clean = op.bochner_block_report(bg, p, op.x_blocks(bg, p))
    assert clean["flagged_blocks"] == [] and clean["worst_block_diff"] < 1e-6
    x_blocks = op.x_blocks

    def corrupted(bg, P):
        X = x_blocks(bg, P)
        X[..., 0, 3, :] *= 1.05  # a 5% error in block (1, 4)
        return X

    monkeypatch.setattr(op, "x_blocks", corrupted)
    rep = op.bochner_block_report(bg, p, op.x_blocks(bg, p))
    assert [f["block"] for f in rep["flagged_blocks"]] == [(1, 4)]


def test_x_structure():
    bg = ModelBackground(2)
    p = np.array([0.8, 0.5, -0.6, 0.0])
    Xb = op.x_blocks(bg, p)
    X24 = op.x_matrix24(Xb)
    assert np.max(np.abs(X24 - X24.T)) < 1e-10
    assert np.max(np.abs(Xb[2])) == 0.0 and np.max(np.abs(Xb[7])) == 0.0
    assert np.max(np.abs(Xb[:, 2])) == 0.0 and np.max(np.abs(Xb[:, 7])) == 0.0
    for slot in (2, 7):
        v = np.zeros((8, 3))
        v[slot, 1] = 1.0  # sigma2
        assert op.spinor_max(op.apply_x(Xb, v)) == 0.0


def apply_xi(bg, sec, P, h):
    """Xi, D minus its gamma3 grad_3 term (it acts within x3-invariant
    sections), from the operator's one covariant jet."""
    val, grads, _, a = op.covariant_grads(bg, sec, P, h)
    return op._assemble_clifford(val, grads, a, skip_gamma3=True)


def _x3_invariant_section(rng, center):
    return op.TrigSection([(rng.normal(size=(8, 3)), (0, 0, 0), 0.0,
                            np.asarray(center) + rng.uniform(-0.15, 0.15, 3),
                            rng.uniform(0.5, 0.9)) for _ in range(3)], envelope=3)


def test_omega_scale_invariance_and_q():
    rng = np.random.default_rng(31)
    bg = ModelBackground(1)
    xi = _x3_invariant_section(rng, (0.9, 0.55, 0.35))
    p = np.array([0.9, 0.55, 0.35, 0.0])
    lam = 2.0
    pull = op.FuncSection(lambda Q: xi.value(
        np.concatenate([Q[..., :3] * lam, Q[..., 3:]], axis=-1)))
    p2 = p.copy()
    p2[:3] *= lam
    o1 = op.omega_apply(bg, pull, p, 1e-5)
    o2 = op.omega_apply(bg, xi, p2, lam * 1e-5)
    assert op.spinor_max(o1 - o2) < 1e-8
    # Xi is homogeneous of weight -1 under the same pullback
    x1 = apply_xi(bg, pull, p, 1e-5)
    x2 = apply_xi(bg, xi, p2, lam * 1e-5)
    assert op.spinor_max(x1 - lam * x2) < 1e-8
    qxi = op.FuncSection(lambda Q: op.apply_q_endo(xi.value(Q)))
    c1 = op.apply_q_endo(op.omega_apply(bg, xi, p, 1e-5))
    c2 = op.omega_apply(bg, qxi, p, 1e-5)
    assert op.spinor_max(c1 - c2) < 1e-8


@pytest.mark.parametrize("kind", ["trivial", "nahm", "model:0", "model:1"])
def test_y_intertwine(kind):
    rng = np.random.default_rng(41)
    bg = make_background(kind)
    center = (1.0, 0.6, 0.4) if kind.startswith("model") else (1.0, 0.0, 0.0)
    sec = op.random_section(rng, center=center, spread=0.25)
    p = np.array([center[0], center[1], center[2], 0.7])
    assert op.y_intertwine(bg, sec, p, 1e-5) < 1e-9
    val = sec.value(p)
    assert op.spinor_max(op.y_apply(op.y_apply(val)) + val) < 1e-14


def test_spatial_identification():
    rng = np.random.default_rng(51)
    P = np.column_stack([np.ones(25), rng.uniform(0, 2 * math.pi, (25, 3))])
    sec = op.random_torus_section(rng, k_max=2, n_terms=4)
    assert op.spatial_identification(TrivialBackground(), sec, P) < 1e-12
    bg_su2 = TorusTrigBackground([("A", 1, (1, 0, 0), 0.2, (0.3, 0.0, 0.0))])
    assert op.spatial_identification(bg_su2, sec, P) < 1e-12
    bg_full = TorusTrigBackground([
        ("A", 1, (1, 0, 0), 0.2, (0.3, 0.0, 0.0)),
        ("a", 0, (0, 1, 1), 0.7, (0.0, 0.2, 0.1)),
    ])
    assert op.spatial_identification(bg_full, sec, P) < 1e-12


def test_closed_constant_form_coclosed():
    # eta a constant 1-form, v = 0, trivial background: the function slot of
    # the image must vanish (constant forms are co-closed on the flat torus)
    amp = np.zeros((8, 3))
    amp[0, 2] = 1.0   # b1 = sigma3
    amp[5, 0] = 0.5   # c2 = sigma1/2
    sec = op.TrigSection([(amp, (0, 0, 0), 0.0, (), 1.0)], envelope=0)
    out = _spatial(TrivialBackground(), sec, np.array([1.0, 0.1, 0.2, 0.3]), None)
    assert np.max(np.abs(out[3])) == 0.0 and np.max(np.abs(out[7])) == 0.0


def test_domain_guards():
    bg = ModelBackground(1)
    sec = op.random_section(np.random.default_rng(0), center=(1.0, 0.5, 0.5))
    with pytest.raises(ValueError):
        op.apply_D(bg, sec, np.array([-1.0, 0.5, 0.5, 0.0]), 1e-5)
    with pytest.raises(ValueError):
        op.apply_D(bg, sec, np.array([1.0, 0.0, 0.0, 0.0]), 1e-5)
    # the remainder reads the background without a section and differences
    # it at the step 1e-3 r, so on the axis disk it must refuse the points
    # apply_D refuses: unguarded it reads NaN at r = 0 and differences at
    # 1e-12 at r = 1e-9
    for p in ([1.0, 0.0, 0.0, 0.3], [1.0, 1e-9, 0.0, 0.3]):
        for read in (op.apply_D, lambda bg, sec, p: op.x_blocks(bg, p)):
            with pytest.raises(ValueError, match="axis disk"):
                read(bg, sec, np.array(p))


def test_three_depictions_read_one_jet(monkeypatch):
    # the suite's three depictions assemble one covariant jet of its points
    reads = []
    grads = op.covariant_grads
    monkeypatch.setattr(op, "covariant_grads",
                        lambda bg, sec, P, h: reads.append(np.shape(P)) or grads(bg, sec, P, h))
    checks = {c.check_id: c for c in operator_suite(1, points=50)}
    assert checks["three_depictions"].status == "pass"
    assert reads.count((50, 4)) == 1


@pytest.mark.parametrize("kind", ["nahm", "model:1"])
def test_omega_reads_its_section_at_one_stencil(kind):
    # xi at p and at its eight neighbours, once each; the result is the
    # composition it replaced, Xi of the section U^{-1} xi minus grad_x xi
    bg = make_background(kind)
    xi = _x3_invariant_section(np.random.default_rng(3), (0.9, 0.55, 0.35))
    p, h = np.array([0.9, 0.55, 0.35, 0.2]), 1e-5
    reads = []
    counted = op.FuncSection(lambda Q: reads.append(Q.shape[:-1]) or xi.value(Q))
    got = op.omega_apply(bg, counted, p, h)
    assert reads == [(), (8,)]

    def u_inv_xi(Q):
        return np.swapaxes(u_endo(Q[..., 0], Q[..., 1], Q[..., 2]), -1, -2) @ xi.value(Q)

    _, g, _, _ = op.covariant_grads(bg, xi, p, h)
    x = math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
    nabla_x = (p[0] * g[0] + p[1] * g[1] + p[2] * g[2]) / x
    assert np.array_equal(got, x * (apply_xi(bg, op.FuncSection(u_inv_xi), p, h) - nabla_x))


@pytest.mark.parametrize("kind", ["model:1", "model:2"])
def test_batched_remainder_matches_per_spinor_loop(kind):
    # the extraction before batching: one bochner_check per basis spinor
    bg = make_background(kind)
    p = np.array([1.0, 0.7, 0.4, 0.3])
    want = np.zeros((24, 24))
    for s in range(8):
        for c in range(3):
            v = np.zeros((8, 3))
            v[s, c] = 1.0
            sec = op.FuncSection(lambda P, v=v: np.broadcast_to(v, P.shape[:-1] + (8, 3)).copy())
            want[:, 3 * s + c] = op.bochner_check(bg, sec, p, 5e-4)["remainder"].ravel()
    got = op.remainder_matrix24(bg, p)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _count_calls(monkeypatch, name, log):
    """Replace op.<name> by a wrapper that logs its calls' point shapes."""
    fn = getattr(op, name)

    def counted(bg, *args, **kwargs):
        log.append((name, np.shape(args[0] if name == "x_blocks" else args[1])))
        return fn(bg, *args, **kwargs)

    monkeypatch.setattr(op, name, counted)


def test_block_report_makes_one_stencil_pass(monkeypatch):
    # the 24 columns come from one batched stencil pass, which assembles no
    # X: the report reads the X it is given
    bg, p = ModelBackground(1), np.array([1.0, 0.7, 0.4, 0.3])
    X = op.x_blocks(bg, p)
    calls = []
    for name in ("bochner_remainder", "bochner_check", "x_blocks"):
        _count_calls(monkeypatch, name, calls)
    rep = op.bochner_block_report(bg, p, X)
    assert calls == [("bochner_remainder", (24, 4))]
    assert rep["flagged_blocks"] == []


def test_operator_suite_assembles_x_once(monkeypatch):
    # every Weitzenbock row of the suite reads the one X assembled at p0:
    # the two bochner comparisons, the block report and remainder_structure
    calls = []
    for name in ("bochner_remainder", "x_blocks"):
        _count_calls(monkeypatch, name, calls)
    checks = operator_suite(1)
    assert all(c.status == "pass" for c in checks)
    assert calls == [("x_blocks", (4,)), ("bochner_remainder", (4,)),
                     ("bochner_remainder", (4,)), ("bochner_remainder", (24, 4))]


def _nested_bochner_remainder(bg, sec, p, h):
    """bochner_check's remainder by nested composition: D^dag of a section
    whose values are D psi, and sum_mu grad_mu grad_mu psi as grad_mu of the
    section whose values are grad_mu psi, one per mu."""
    inner_D = op.FuncSection(lambda Q: op.apply_D(bg, sec, Q, h))
    ddag_d = op.apply_D_dagger(bg, inner_D, p, h)
    lap = 0.0
    for mu in range(4):
        first = op.FuncSection(
            lambda Q, mu=mu: op.covariant_grads(bg, sec, Q, h)[1][..., mu, :, :])
        lap = lap + op.covariant_grads(bg, first, p, h)[1][..., mu, :, :]
    val, a = sec.value(p), bg.fields(p)[1]
    commterm = 0.0
    for i in range(3):
        ai = a[..., i, None, :]
        commterm = commterm + op.comm(ai, op.comm(val, ai))
    return ddag_d + lap - commterm


def _basis_section():
    return op.FuncSection(lambda Q: np.broadcast_to(op._BASIS24, Q.shape[:-1] + (8, 3)))


# the torus background carries a live connection A, so the Laplacian's
# connection terms are read; trivial and nahm have A = 0
BOCHNER_BACKGROUNDS = [
    ("trivial", TrivialBackground(), (1.0, 0.1, -0.2)),
    ("nahm", NahmBackground(), (1.0, 0.1, -0.2)),
    ("model:1", ModelBackground(1), (1.0, 0.7, 0.2)),
    ("model:3", ModelBackground(3), (0.8, -0.5, 0.6)),
    ("torus", TorusTrigBackground(DUALITY_TERMS), (1.0, 0.4, 2.1)),
]


@pytest.mark.parametrize("name,bg,center", BOCHNER_BACKGROUNDS,
                         ids=[b[0] for b in BOCHNER_BACKGROUNDS])
def test_bochner_one_pass_matches_nested_composition(name, bg, center):
    assert name != "torus" or np.any(bg.fields(np.array([*center, 0.4]))[0])
    rng = np.random.default_rng(21)
    sec = op.random_section(rng, center=center, spread=0.3)
    p = np.array([center[0], center[1], center[2], 0.4])
    for h in (1e-3, 5e-4):
        got = op.bochner_check(bg, sec, p, h)["remainder"]
        assert np.array_equal(got, _nested_bochner_remainder(bg, sec, p, h))
    # remainder_matrix24's batch: the point repeated 24 times, basis spinor j
    # at the j-th copy
    P = np.broadcast_to(p, (24, 4))
    got = op.bochner_check(bg, _basis_section(), P, 5e-4)["remainder"]
    assert np.array_equal(got, _nested_bochner_remainder(bg, _basis_section(), P, 5e-4))


@pytest.mark.parametrize("shape", [(4,), (24, 4)])
def test_bochner_check_reads_one_stencil(monkeypatch, shape):
    # psi's gradients at p and at its eight neighbours: two covariant_grads
    # calls and 9 + 8 x 9 = 81 section values per query point
    grads_calls, points = [], []
    covariant_grads = op.covariant_grads

    def counted(*args, **kwargs):
        grads_calls.append(1)
        return covariant_grads(*args, **kwargs)

    sec = op.random_section(np.random.default_rng(6), center=(1.0, 0.7, 0.2))
    traced = op.FuncSection(lambda Q: points.append(Q[..., 0].size) or sec.value(Q))
    monkeypatch.setattr(op, "covariant_grads", counted)
    P = np.broadcast_to(np.array([1.0, 0.7, 0.2, 0.4]), shape)
    op.bochner_check(ModelBackground(1), traced, P, 1e-3)
    assert len(grads_calls) == 2
    assert sum(points) == 81 * P[..., 0].size


class _GaussTrigOracle:
    """The blob formulas, the reference for blob-type TrigSections bit for
    bit: sums of Gaussians in (t, x1, x2) times cos(n x3 + phase), blobs
    (amp, center, width, n, phase)."""

    def __init__(self, blobs):
        amp, c, s, n, ph = zip(*blobs)
        self._amps = np.reshape(np.asarray(amp, float), (-1, 24))
        self._centers = np.asarray(c, float)
        self._widths = np.asarray(s, float)
        self._n = np.asarray(n, float)
        self._phases = np.asarray(ph, float)

    def _envelopes(self, P):
        d = P[..., None, :3] - self._centers
        g = np.exp(-np.sum(d * d, axis=-1) / (2 * self._widths * self._widths))
        return d, g, self._n * P[..., 3, None] + self._phases

    def value(self, P):
        _, g, angle = self._envelopes(P)
        return op._superpose(g * np.cos(angle), self._amps)

    def grads(self, P):
        d, g, angle = self._envelopes(P)
        w = np.empty(g.shape[:-1] + (4,) + g.shape[-1:])
        w[..., :3, :] = (-np.swapaxes(d, -1, -2) / (self._widths * self._widths)
                         * g[..., None, :] * np.cos(angle)[..., None, :])
        w[..., 3, :] = -g * np.sin(angle) * self._n
        return op._superpose(w, self._amps)


def _blob_terms(blobs):
    """The blobs (amp, center, width, n, phase) as TrigSection terms."""
    return [(amp, (0, 0, n), ph, c, s) for amp, c, s, n, ph in blobs]


def _gauss_per_blob(blobs, P):
    """The blob section's value and four derivatives summed blob by blob."""
    val, ders = 0.0, [0.0] * 4
    for amp, c, s, n, ph in blobs:
        d = P[..., :3] - c
        g = np.exp(-np.sum(d * d, axis=-1) / (2 * s * s))
        trig = np.cos(n * P[..., 3] + ph)
        val = val + (g * trig)[..., None, None] * amp
        for mu in range(4):
            f = (-d[..., mu] / (s * s) * g * trig if mu < 3
                 else -g * np.sin(n * P[..., 3] + ph) * n)
            ders[mu] = ders[mu] + f[..., None, None] * amp
    return val, ders


def _torus_per_term(terms, P):
    """A periodic section's value and four derivatives summed term by term;
    terms (amp, k, phase, t_center, t_width), with t_center None for no
    t-envelope."""
    val, ders = 0.0, [0.0] * 4
    for amp, k, ph, t_center, t_width in terms:
        if t_center is None:
            g, dg = np.ones(P.shape[:-1]), np.zeros(P.shape[:-1])
        else:
            u = (P[..., 0] - t_center) / t_width
            g = np.exp(-0.5 * u * u)
            dg = -u / t_width * g
        arg = np.einsum("...i,i->...", P[..., 1:], k) + ph
        val = val + (g * np.cos(arg))[..., None, None] * amp
        for mu in range(4):
            f = dg * np.cos(arg) if mu == 0 else -g * np.sin(arg) * k[mu - 1]
            ders[mu] = ders[mu] + f[..., None, None] * amp
    return val, ders


def _random_blobs(rng):
    return [(rng.normal(size=(8, 3)), rng.uniform(0.5, 1.5, 3), rng.uniform(0.6, 1.4),
             int(rng.integers(0, 3)), rng.uniform(0, 2 * math.pi)) for _ in range(3)]


@pytest.mark.parametrize("kind", ["gauss", "torus", "torus-t-envelope", "torus-two-t-envelopes"])
def test_trig_sections_match_per_term_sums(kind):
    rng = np.random.default_rng(5)
    if kind == "gauss":
        blobs = _random_blobs(rng)
        sec = op.TrigSection(_blob_terms(blobs), envelope=3)
        reference = lambda P: _gauss_per_blob(blobs, P)
    else:
        envelopes = {"torus": [(None, 0.5)] * 3, "torus-t-envelope": [(2.0, 0.35)] * 3,
                     "torus-two-t-envelopes": [(2.0, 0.35), (1.8, 0.45), (2.0, 0.35)]}[kind]
        terms = [(rng.normal(size=(8, 3)), rng.integers(-2, 3, size=3).astype(float),
                  rng.uniform(0, 2 * math.pi)) + env for env in envelopes]
        envelope = 0 if kind == "torus" else 1
        sec = op.TrigSection([(amp, k, ph, (c,)[:envelope], w) for amp, k, ph, c, w in terms],
                             envelope=envelope)
        reference = lambda P: _torus_per_term(terms, P)
    P = random_points(rng, (1.0, 0.7, 0.4), n=60).reshape(3, 20, 4)
    val, ders = reference(P)
    assert sec.value(P).shape == (3, 20, 8, 3)
    assert np.max(np.abs(sec.value(P) - val)) <= 1e-13
    jet_val, grads = sec.jet(P)
    assert np.array_equal(jet_val, sec.value(P))
    assert grads.shape == (3, 20, 4, 8, 3)
    for mu in range(4):
        assert np.max(np.abs(grads[..., mu, :, :] - ders[mu])) <= 1e-13
    # a single point keeps its shape
    assert sec.value(P[0, 0]).shape == (8, 3)
    assert [a.shape for a in sec.jet(P[0, 0])] == [(8, 3), (4, 8, 3)]
    if kind == "gauss":
        # blob terms keep the blob formulas, so the checks they feed read
        # the same floats
        oracle = _GaussTrigOracle(blobs)
        assert np.array_equal(jet_val, oracle.value(P)) and np.array_equal(grads, oracle.grads(P))


def test_one_evaluation_per_jet_consumer(monkeypatch):
    # covariant_grads with exact derivatives reads one jet, and x_blocks on
    # the torus background reads one, x_fields'
    calls = []
    terms_at = op.TrigSection._terms_at

    def counted(self, P):
        calls.append(1)
        return terms_at(self, P)

    monkeypatch.setattr(op.TrigSection, "_terms_at", counted)
    rng = np.random.default_rng(4)
    P = random_points(rng, (1.0, 0.0, 0.0))
    op.covariant_grads(TrivialBackground(), op.random_section(rng), P, None)
    assert len(calls) == 1
    op.x_blocks(TorusTrigBackground(DUALITY_TERMS), P)
    assert len(calls) == 1 + 1
    # the box reads no point jet: it separates psi and xi once each,
    # whatever nt
    separations = []
    separated = op.TrigSection.separated

    def counted_separation(self, *args):
        separations.append(1)
        return separated(self, *args)

    monkeypatch.setattr(op.TrigSection, "separated", counted_separation)
    psi = op.random_torus_section(rng, k_max=1, n_terms=2, t_center=2.0, t_width=0.35)
    for nt in (5, 40):
        op.box_quadrature(TrivialBackground(), psi, psi, t_range=(0.0, 4.0), nt=nt, nx=4)
    assert len(calls) == 1 + 1
    assert len(separations) == 2 + 2


def _count_evaluations(monkeypatch):
    """The list that gets one entry per model evaluation a background makes."""
    calls = []
    evaluate = backgrounds.evaluate

    def counted(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(backgrounds, "evaluate", counted)
    return calls


def test_model_x_blocks_evaluations(monkeypatch):
    # x_blocks on a model background: x_fields evaluates once at P and once
    # at its eight difference points, stacked
    calls = _count_evaluations(monkeypatch)
    op.x_blocks(ModelBackground(1), np.array([1.0, 0.7, 0.4, 0.3]))
    assert len(calls) == 2


def test_operator_suite_model_evaluations(monkeypatch):
    # one fields read per covariant_grads and per omega_apply, one x_fields
    # per x_blocks: three_depictions 1, y_intertwine 2, x_blocks 2, the two
    # Weitzenbock stencils 2 x 2, the block report 2 and Omega 4
    calls = _count_evaluations(monkeypatch)
    assert run_suite("operator", 1).n_fail == 0
    assert len(calls) == 15


def test_zero_background_skips_bracket_terms(monkeypatch):
    # on the trivial background the brackets are exact zeros: skipping them
    # calls no commutator and leaves D psi unchanged
    sec = op.random_torus_section(np.random.default_rng(2), k_max=1, n_terms=3)
    P = random_points(np.random.default_rng(3), (1.0, 0.0, 0.0))
    calls = []
    comm = op.comm

    def counted(u, v):
        calls.append(1)
        return comm(u, v)

    monkeypatch.setattr(op, "comm", counted)
    got = op.apply_D(TrivialBackground(), sec, P, None)
    monkeypatch.undo()
    assert calls == []
    # the contraction with every bracket term added, as zeros
    (val, d), zero = sec.jet(P), np.zeros(P.shape[:-1] + (3, 3))
    grads = [d[..., 0, :, :]] + [d[..., 1 + i, :, :] + op.comm(zero[..., i, None, :], val)
                                 for i in range(3)]
    want = grads[0]
    for i in range(3):
        want = want + GAMMA_F[i] @ grads[1 + i]
    for i in range(3):
        want = want + RHO_F[i] @ op.comm(zero[..., i, None, :], val)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dt_sign,skip_gamma3", [(1.0, False), (-1.0, False), (0.0, False),
                                                 (1.0, True)])
@pytest.mark.parametrize("higgs", [False, True])
def test_clifford_permutations_equal_matrix_products(dt_sign, skip_gamma3, higgs):
    # the signed-permutation contraction against the 8x8 matrix products, in
    # the same order, on random values, gradients and Higgs fields
    rng = np.random.default_rng(5)
    val = rng.normal(size=(4, 6, 8, 3))
    grads = rng.normal(size=(4, 6, 4, 8, 3))
    a = rng.normal(size=(4, 6, 3, 3)) if higgs else np.zeros((4, 6, 3, 3))
    got = op._assemble_clifford(val, grads, a, dt_sign=dt_sign, skip_gamma3=skip_gamma3)
    want = dt_sign * grads[..., 0, :, :]
    for i in range(2 if skip_gamma3 else 3):
        want = want + GAMMA_F[i] @ grads[..., 1 + i, :, :]
    if higgs:
        for i in range(3):
            want = want + RHO_F[i] @ op.comm(a[..., i, None, :], val)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("row", [[0, 1, 1, 0], [0, 0, 0, 0], [0, 2, 0, 0], [0, 0.5, 0, 0]])
def test_signed_permutation_refuses_other_rows(row):
    m = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [1, 0, 0, 0], row])
    with pytest.raises(ValueError, match="row 3"):
        op._signed_permutation(m)
