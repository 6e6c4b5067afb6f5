"""Witnesses: a planted defect in each constant object, each coefficient
kernel and the flow's step fails the suite check that validates it.

Theta, U, Q and ad each have one definition, used both by the check and by
the code that needs it, so a defect in the definition also changes what that
code computes.  A defect is planted by replacing the one definition wherever
a kwlab module holds it, as a wrong line in its body would.
"""

import dataclasses
import functools
import itertools
import json
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from kwlab import algebra, clifford, flow, model, modes, spectral, torus
from kwlab import operator as op
from kwlab.backgrounds import ModelBackground
from kwlab.cli import main
from kwlab.suites import run_suite


def plant(monkeypatch, fn, broken):
    """Replace fn by broken in every kwlab module that holds it."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "kwlab" or name.startswith("kwlab.")):
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, broken)


def failing(suite, **kwargs):
    """Ids of the checks that fail."""
    return {c.check_id for c in run_suite(suite, seed=0, **kwargs).checks
            if c.status != "pass"}


def theta_upside_down(mp):
    # Theta is the arcsinh in model.fields; the defect takes sinh Theta = |z|/t
    upside_down = SimpleNamespace(**{**vars(np), "arcsinh": lambda s: np.arcsinh(1 / s)})
    mp.setattr(model, "np", upside_down)


def u_off_normalization(mp):
    u = clifford.u_endo
    plant(mp, u, lambda t, z1, z2: 1.001 * u(t, z1, z2))


def q_wrong_generator(mp):
    # Q = rho1 rho2 - [sigma1, .]: the spectrum is unchanged, [Q, L] is not
    q = lambda: (clifford.comp_action(clifford.RHO[0] @ clifford.RHO[1])
                 - clifford.value_action(np.eye(3)[0]))
    plant(mp, clifford.q_endo, q)


def e_factor_too_large(mp):
    # |E| x^3/t then exceeds its bound m(m+2)/3 near Theta = 0
    pf = model.profile_factors
    plant(mp, pf, lambda m, th: {**pf(m, th), "e_factor": 1.01 * pf(m, th)["e_factor"]})


def ad_without_factor_two(mp):
    ad = clifford.ad_matrix
    plant(mp, ad, lambda x: 0.5 * ad(x))


def ad_sign_slip(mp):
    # a global sign leaves the pole and Q spectra as they are; the bracket
    # kernel the operator applies and Q disagree with it
    ad = clifford.ad_matrix
    plant(mp, ad, lambda x: -ad(x))


def symbol_off_by_a_millionth(mp):
    # eigenvalues (1 + 1e-6) |k|: inside np.allclose's default rtol of 1e-5
    sym = modes.symbol
    plant(mp, sym, lambda k, L=2 * np.pi: (1 + 1e-6) * sym(k, L))


def mu_off_by_a_hundredth(mp):
    # a decay-law fit whose exponent is 0.01 too large
    fit = flow.lojasiewicz_fit

    def off(trace):
        out = fit(trace)
        return {**out, "mu_estimate": out["mu_estimate"] + 0.01}

    plant(mp, fit, off)


def step_length_off_by_a_percent(mp):
    # each RK4 stage moves 1.01 times as far as the clock advances
    adv = flow._advance
    plant(mp, adv, lambda Z, FZ, h, out: adv(Z, FZ, 1.01 * h, out))


def flow_run_backwards(mp):
    # each RK4 stage steps against the flow, so cs falls
    adv = flow._advance
    plant(mp, adv, lambda Z, FZ, h, out: adv(Z, FZ, -h, out))


def rk4_weights_1311(mp):
    # k2 enters the RK4 sum three times and k3 once: weights 1, 3, 1, 1 in
    # place of 1, 2, 2, 1, still six in sum.  run_flow binds k *= 2 for k2
    # and then for k3 in each step list it builds, through flow.partial
    weights = itertools.cycle((3, 1))

    def weighted(fn, *args, **kwargs):
        if fn is np.multiply and type(args[1]) is int:
            args = (args[0], next(weights), *args[2:])
        return functools.partial(fn, *args, **kwargs)

    mp.setattr(flow, "partial", weighted)


def curvature_brackets_reversed(mp):
    # [Z_j, Z_i] in place of [Z_i, Z_j]: bind_curvature's bound bracket
    # calls with their operands swapped
    bind = torus.bind_curvature

    def reversed_order(F, Z, out, rows, scratch):
        return [functools.partial(c.func, c.args[1], c.args[0], *c.args[2:], **c.keywords)
                if c.func is torus.comm else c for c in bind(F, Z, out, rows, scratch)]

    plant(mp, bind, reversed_order)


def stencil_off_by_a_percent(mp):
    # every derivative 1.01 times too large; the flows' identities still hold,
    # since they differentiate the same discrete functional.  deriv reads its
    # matrices through a cache, which a fresh one stands in for meanwhile
    dm = torus.diff_matrix
    plant(mp, dm, lambda scheme, N, L: 1.01 * dm(scheme, N, L))
    mp.setattr(torus, "deriv_matrices", functools.lru_cache(torus.deriv_matrices.__wrapped__))


def differences_lean_forward(mp):
    # the differenced gradients move 1e-4 of the way to a forward difference,
    # a first-order error of 5e-5 h f'' (the remainder check still reads 8e-7)
    cg = op.covariant_grads

    def leaning(bg, sec, P, h):
        val, grads, A, a = cg(bg, sec, P, h)
        if h is not None:
            for mu in range(4):
                Q = np.array(P, dtype=float)
                Q[..., mu] += h
                ahead = sec.value(Q)
                Q[..., mu] -= 2 * h
                grads[..., mu, :, :] += 1e-4 * (ahead - 2 * val + sec.value(Q)) / (2 * h)
        return val, grads, A, a

    plant(mp, cg, leaning)


def t_difference_leans_forward(mp, lean=1e-4):
    # the model's t-difference moves `lean` of the way to a forward
    # difference, a first-order error of lean/2 h f'' in dt_phi and B3, while
    # dbar_phi, E1 and E2 stay second order.  At 1e-4 the residuals stay
    # below reduced_equations' 1e-6 (8.3e-10 at seed 0), and only the ratios
    # show the slip: dt_phi and B3 read 4.73 and 5.08 at (1e-3, 5e-4)
    grad = model._grad

    def leaning(f, h):
        dt, d1, d2 = grad(f, h)
        h = np.asarray(h)
        step = h.reshape(h.shape + (1,) * (f.ndim - 1 - h.ndim))
        return dt + lean * (f[1] - 2 * f[0] + f[2]) / (2 * step), d1, d2

    plant(mp, grad, leaning)


def angular_term_doubled(mp):
    # 2 n^2 in place of n^2 in the Sturm-Liouville stiffness: the angular
    # order becomes sqrt(2) n, and the minimum (nu + 1)(nu + 2) at nu = sqrt(2)
    # reads 8.24 in place of 6; n = 0 is untouched
    once = spectral._sl_min_once

    def doubled(prob, n_mesh):
        return once(dataclasses.replace(prob, angular_mode=math.sqrt(2) * prob.angular_mode),
                    n_mesh)

    plant(mp, once, doubled)


def connection_sign_slip(mp):
    # [A_i, psi] enters the covariant derivatives with the wrong sign
    add = op._add_connection
    plant(mp, add, lambda A, val, grads: add(-A, val, grads))


def omega_without_x(mp):
    # Omega without its leading factor x: Xi(U^{-1} xi) - grad_x xi has weight
    # -1 under (t, z) -> (lambda t, lambda z), so the rescaling moves it;
    # Q still commutes with it
    omega = op.omega_apply
    plant(mp, omega, lambda bg, sec, p, h: omega(bg, sec, p, h) / np.linalg.norm(p[:3]))


def x21_sign_flipped(mp):
    # X_21 = 2 B3 with the wrong sign, so X is no longer symmetric.  The
    # operator suite runs on model:1; on nahm, where B3 = 0, the plant
    # changes nothing and cannot show
    xb = op.x_blocks

    def flipped(bg, P):
        X = xb(bg, P)
        X[..., 1, 0, :] *= -1
        return X

    plant(mp, xb, flipped)


def first_sign_flipped(perms):
    """A generator table whose first generator has its first row's sign flipped."""
    (sources, signs), *rest = perms
    flipped = signs.copy()
    flipped[0] *= -1
    return ((sources, flipped), *rest)


def clifford_table_sign_slip(mp):
    # gamma_1's first row with the wrong sign, in the contraction's table only
    plant(mp, op._GAMMA_PERMS, first_sign_flipped(op._GAMMA_PERMS))


def rho_table_sign_slip(mp):
    # rho_1's first row with the wrong sign, in the contraction's table only
    plant(mp, op._RHO_PERMS, first_sign_flipped(op._RHO_PERMS))


BG = ModelBackground(1)
P0 = np.array([1.0, 0.7, 0.4, 0.3])
SEC = op.random_section(np.random.default_rng(0), center=P0[:3], spread=0.25)
V = np.random.default_rng(1).normal(size=(5, 8, 3))
TS = np.linspace(0.0, 6.0, 400)
# times, cs and grad_norm_sq of an exponential approach; the four monitors zero
EXP_TRACE = flow.FlowTrace(TS, 1 - np.exp(-3 * TS), 3 * np.exp(-3 * TS), *[0 * TS] * 4)
# one plane wave at k = (1, 0, 0), every slot filled
PLANE_WAVE = modes.ModeVector(modes.k_lattice(1), np.zeros((27, 8, 3), complex))
PLANE_WAVE.coeffs[[tuple(k) for k in PLANE_WAVE.ks].index((1, 0, 0))] = 1.0
# the model suite's point for reduced_equations_order
P_ORDER = np.array([1.0]), np.array([0.7 + 0.2j])
T, Z = np.array([0.4, 1.0, 2.5]), np.array([0.3 + 0.2j, -1.0 + 0.5j, 2.0 - 1.0j])
FLOW_DATA = torus.random_field(np.random.default_rng(2), 8, amplitude=0.05)

# (defect, suite and its options, checks that must fail, output of the code
# that uses the object)
WITNESSES = {
    "theta": (theta_upside_down, ("model", {}),
              {"theta_pythagoras", "reduced_equations", "decoupled_sector_solution"},
              lambda: model.fields(model.ModelSolution(1), T, Z)["alpha"]),
    "curvature": (e_factor_too_large, ("model", {}), {"curvature_decay", "reduced_equations"},
                  lambda: model.evaluate(model.ModelSolution(1), T, Z).E1),
    "t_difference": (t_difference_leans_forward, ("model", {}), {"reduced_equations_order"},
                     lambda: model.verify_reduced_eqs(model.ModelSolution(1), *P_ORDER,
                                                      1e-3)["dt_phi"]),
    "U": (u_off_normalization, ("clifford", {}), {"u_orthogonal"},
          lambda: op.omega_apply(BG, SEC, P0, 1e-5)),
    "Q": (q_wrong_generator, ("clifford", {}), {"ql_commute"},
          lambda: op.apply_q_endo(V)),
    "ad_scale": (ad_without_factor_two, ("clifford", {}),
                 {"pole_endo_eigenvalues_t1", "pole_endo_eigenvalues_t2", "q_spectrum",
                  "flat_connection_kernel"},
                 lambda: op.x_matrix24(op.x_blocks(BG, P0))),
    "ad_sign": (ad_sign_slip, ("operator", {"points": 20}),
                {"weitzenbock_blocks", "omega_q_commute", "mode_symbol"},
                lambda: op.x_matrix24(op.x_blocks(BG, P0))),
    "ad_sign_clifford": (ad_sign_slip, ("clifford", {}), {"ad_matches_bracket"},
                         lambda: op.x_matrix24(op.x_blocks(BG, P0))),
    "symbol": (symbol_off_by_a_millionth, ("operator", {"points": 20}),
               {"symbol_spectrum", "mode_symbol"},
               lambda: modes.linearized_decay(1, PLANE_WAVE, T=10.0, dt=1.0)["f_plus"]),
    "symbol_modes": (symbol_off_by_a_millionth, ("flow-smoke", {}),
                     {"single_mode_decay", "contraction_fixed_point"},
                     lambda: modes.linearized_decay(1, PLANE_WAVE, T=10.0, dt=1.0)["f_plus"]),
    "clifford_table": (clifford_table_sign_slip, ("operator", {"points": 20}),
                       {"three_depictions", "y_intertwine", "spatial_identification",
                        "weitzenbock_remainder", "adjoint_duality"},
                       lambda: op.apply_D(BG, SEC, P0, 1e-5)),
    "rho_table": (rho_table_sign_slip, ("operator", {"points": 20}),
                  {"three_depictions", "y_intertwine", "weitzenbock_remainder",
                   "weitzenbock_blocks", "omega_q_commute", "mode_symbol"},
                  lambda: op.apply_D(BG, SEC, P0, 1e-5)),
    "connection_sign": (connection_sign_slip, ("operator", {"points": 20}),
                        {"mode_symbol", "weitzenbock_remainder", "weitzenbock_blocks"},
                        lambda: op.apply_D(BG, SEC, P0, 1e-5)),
    "omega_x_factor": (omega_without_x, ("operator", {"points": 20}),
                       {"omega_scale_invariance"}, lambda: op.omega_apply(BG, SEC, P0, 1e-5)),
    "x21_sign": (x21_sign_flipped, ("operator", {"points": 20}),
                 {"remainder_structure", "weitzenbock_remainder", "weitzenbock_order",
                  "weitzenbock_blocks"},
                 lambda: op.x_matrix24(op.x_blocks(BG, P0))),
    "difference_order": (differences_lean_forward, ("operator", {"points": 20}),
                         {"weitzenbock_order"},
                         lambda: op.bochner_check(BG, SEC, P0, 1e-3)["residual"]),
    "flow_direction": (flow_run_backwards, ("flow-smoke", {}), {"monotone_cs"},
                       lambda: flow.run_flow(FLOW_DATA, flow.FlowConfig(0.05 * FLOW_DATA.h, 5)).cs),
    "flow_step": (step_length_off_by_a_percent, ("flow-smoke", {}),
                  {"energy_identity", "two_rate_forms"},
                  lambda: flow.run_flow(FLOW_DATA, flow.FlowConfig(0.05 * FLOW_DATA.h, 5)).cs),
    "rk4_weights": (rk4_weights_1311, ("flow-smoke", {}),
                    {"abelian_rk4_oracle", "two_rate_forms", "linear_regime_rate",
                     "constant_field_oracle"},
                    lambda: flow.run_flow(FLOW_DATA, flow.FlowConfig(0.05 * FLOW_DATA.h, 5)).cs),
    "bracket_order": (curvature_brackets_reversed, ("flow-smoke", {}),
                      {"gradient_check", "gauge_invariance", "nahm_decay_exponent",
                       "constant_field_oracle"}, lambda: torus.curvature(FLOW_DATA)),
    "stencil": (stencil_off_by_a_percent, ("flow-smoke", {}),
                {"stencil_symbol", "linear_regime_rate"}, lambda: torus.curvature(FLOW_DATA)),
    "angular_term": (angular_term_doubled, ("spectral", {}), {"rayleigh_angular_mode"},
                     lambda: spectral.rayleigh_min(spectral.SLProblem(angular_mode=1))["mu"]),
    "decay_law": (mu_off_by_a_hundredth, ("flow-smoke", {}),
                  {"linear_regime_rate", "decay_fit_oracle", "nahm_decay_exponent"},
                  lambda: flow.lojasiewicz_fit(EXP_TRACE)["mu_estimate"]),
}


@pytest.mark.parametrize("name", list(WITNESSES))
def test_defect_fails_its_check_and_changes_its_user(monkeypatch, name):
    defect, (suite, kwargs), checks, user = WITNESSES[name]
    before = user()
    assert not failing(suite, **kwargs) & checks
    defect(monkeypatch)
    assert checks <= failing(suite, **kwargs)
    assert not np.allclose(user(), before, rtol=1e-6, atol=0)


def test_first_order_slip_is_caught_only_by_the_tight_order_bound(monkeypatch):
    # the slip reads between weitzenbock_order's bound and the 1.0 it had
    differences_lean_forward(monkeypatch)
    check = {c.check_id: c for c in run_suite("operator", seed=0, points=20).checks}[
        "weitzenbock_order"]
    assert check.tolerance == 1e-3 < check.metric < 1.0


def test_first_order_residual_hides_under_the_largest_ratio(monkeypatch):
    # at a lean of 1e-2 the slipped residuals fall 2x per halving (1.92 and
    # 1.94), but the largest ratio still reads 4, so |max ratio - 4|, the
    # order metric before max |ratio - 4|, passed them
    t_difference_leans_forward(monkeypatch, lean=1e-2)
    ms = model.ModelSolution(1)
    r1, r2 = (model.verify_reduced_eqs(ms, *P_ORDER, h) for h in (1e-3, 5e-4))
    ratios = [r1[k] / r2[k] for k in r1]
    assert abs(max(ratios) - 4.0) < 1e-3 and min(ratios) < 2.1
    check = {c.check_id: c for c in run_suite("model", seed=0).checks}[
        "reduced_equations_order"]
    assert check.metric == max(abs(r - 4.0) for r in ratios) > 1.5


def test_non_finite_metric_is_null_in_a_strict_report(monkeypatch, capsys):
    # ad/2 gives the pole endomorphism the wrong number of eigenvalues, whose
    # distance to the expected set is infinite
    ad_without_factor_two(monkeypatch)
    assert main(["clifford"]) == 1

    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    checks = {c["check_id"]: c for c in report["checks"]}
    for t in (1, 2):
        assert checks[f"pole_endo_eigenvalues_t{t}"]["status"] == "fail"
        assert checks[f"pole_endo_eigenvalues_t{t}"]["metric"] is None


# the bracket slip swaps the operands, so it also writes [v, u] = -[u, v]
# through out, where the flow's bound bracket calls read it
KERNEL_SLIPS = {
    "algebra.coeff_bracket": (algebra.coeff_bracket, lambda f: (
        lambda u, v, out=None, axis=-1: f(v, u, out, axis))),
    "algebra.coeff_norm": (algebra.coeff_norm, lambda f: lambda u: 1.001 * f(u)),
}


@pytest.mark.parametrize("name", list(KERNEL_SLIPS))
def test_kernel_slip_fails_kernel_check(monkeypatch, name):
    kernel, slip = KERNEL_SLIPS[name]
    assert "coeff_kernels_match_matrices" not in failing("algebra")
    plant(monkeypatch, kernel, slip(kernel))
    check = {c.check_id: c for c in run_suite("algebra", seed=0).checks}[
        "coeff_kernels_match_matrices"]
    # the bracket is checked with its coefficients on the last axis and on
    # axis 0, which a slip fails alike
    assert check.status == "fail"
    assert check.worst_location in {f"worst: {name}", f"worst: {name}, axis 0"}


def test_bracket_slip_leaves_the_flow_off_its_oracle(monkeypatch):
    # the flow reads its brackets from out; under the slip its constant-field
    # trajectory leaves the 2x2 oracle's
    kernel, slip = KERNEL_SLIPS["algebra.coeff_bracket"]
    assert "constant_field_oracle" not in failing("flow-smoke")
    plant(monkeypatch, kernel, slip(kernel))
    assert "constant_field_oracle" in failing("flow-smoke")
