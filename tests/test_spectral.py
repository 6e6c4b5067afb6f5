import math
from types import SimpleNamespace

import numpy as np
import pytest

from kwlab import spectral as sp


def test_hardy_halfline_base_family():
    r = sp.hardy_halfline_ratio(lambda t: t * np.exp(-t), lambda t: np.exp(-t) * (1 - t))
    assert r <= 4.0
    assert abs(r - 2.0) < 1e-3  # exact value for t e^{-t}


def test_hardy_near_extremal_sweep():
    sweep = sp.hardy_near_extremal_sweep()
    vals = list(sweep.values())
    assert max(vals) <= 4.0 + 1e-9
    assert max(vals) > 3.5
    # ratios increase as the exponent approaches 1/2
    eps_sorted = sorted(sweep)
    assert sweep[eps_sorted[0]] > sweep[eps_sorted[-1]]


@pytest.mark.parametrize("eps,tol", [(0.2, 1e-14), (0.1, 1e-14), (0.05, 1e-9)])
def test_hardy_near_extremal_sweep_closed_form(eps, tol):
    # f = t^p e^{-t} with p = 1/2 + eps: both integrals are Gamma functions
    # and the ratio is 2/p = 4/(1 + 2 eps); at eps = 0.02 and 0.01 the grid's
    # lower cut at t = 1e-90 leaves part of the mass integral out
    assert abs(sp.hardy_near_extremal_sweep()[eps] - 4.0 / (1.0 + 2.0 * eps)) < tol


def test_hardy_scale_invariance():
    # the ratio is homogeneous of degree zero in f
    r1 = sp.hardy_halfline_ratio(lambda t: t * np.exp(-t), lambda t: np.exp(-t) * (1 - t))
    c = 37.5
    r2 = sp.hardy_halfline_ratio(lambda t: c * t * np.exp(-t),
                                 lambda t: c * np.exp(-t) * (1 - t))
    assert abs(r1 - r2) < 1e-12


def test_hardy_cone_and_profile():
    assert sp.hardy_cone_ratio(1.0, (1.0,))[1.0] <= 4.0 / 9.0
    assert sp.hardy_cone_ratio(0.7, (2.0,))[2.0] <= 4.0 / 9.0
    # scale invariance in s
    small, large = (sp.hardy_cone_ratio(s, (1.0,))[1.0] for s in (0.5, 2.0))
    assert abs(small - large) < 1e-3
    assert max(sp.hardy_profile_ratio((1.0, 3.0)).values()) <= 4.0


def test_hardy_suite_shares_its_grid_functions(monkeypatch):
    # one cone kernel K = 1/(t^2 + r^2) per s, for both powers (a kernel per
    # (a, s) made 6), and one e^{-t} on the 40000-point near-extremal grid
    # (two per eps made 10); the profile family takes no exp
    calls = {"outer": 0, "exp": 0}

    def outer(*args, **kwargs):
        calls["outer"] += 1
        return np.add.outer(*args, **kwargs)

    def exp(x, *args, **kwargs):
        calls["exp"] += np.size(x) == 40000
        return np.exp(x, *args, **kwargs)

    want = sp.hardy_suite()
    monkeypatch.setattr(sp, "np", SimpleNamespace(
        **{**vars(np), "exp": exp, "add": SimpleNamespace(outer=outer)}))
    assert sp.hardy_suite() == want
    assert calls == {"outer": 3, "exp": 1}


def _hardy_cone_ratio_nested(a, s):
    """hardy_cone_ratio as nested trapezoids over the full 600 x 600 grid."""
    t = np.linspace(1e-6, 8.0 * s, 600)
    r = np.linspace(1e-6, 8.0 * s, 600)
    T, R = np.meshgrid(t, r, indexing="ij")
    X2 = T * T + R * R
    gauss = np.exp(-X2 / (2 * s * s))
    psi = T ** a * gauss
    dpsi_dt = (a * T ** (a - 1) - T ** (a + 1) / s ** 2) * gauss
    dpsi_dr = -R / s ** 2 * psi
    num = np.trapezoid(np.trapezoid(psi * psi / X2 * R, r, axis=1), t)
    den = np.trapezoid(np.trapezoid((dpsi_dt ** 2 + dpsi_dr ** 2) * R, r, axis=1), t)
    return float(num / den)


@pytest.mark.parametrize("a,s", [(a, s) for a in (1.0, 2.0) for s in (0.7, 1.0, 1.6)]
                         + [(1.0, 0.5), (1.0, 2.0)])
def test_separable_cone_ratio_equals_nested_trapezoids(a, s):
    assert sp.hardy_cone_ratio(s, (a,))[a] == pytest.approx(_hardy_cone_ratio_nested(a, s),
                                                            rel=1e-13, abs=0)


def test_hemisphere_ground_state():
    he = sp.hemisphere_eig0(2000)
    assert abs(he["eigenvalue"] - 2.0) < 1e-3
    assert he["eigenfunction_distance_to_cos"] < 1e-2
    assert abs(he["second_eigenvalue"] - 12.0) < 0.05
    with pytest.raises(ValueError):
        sp.hemisphere_eig0(50)


def test_hemisphere_ground_state_fine_mesh():
    # the O(h^2) discretization error is 1e-10 at 10^5 cells; the solver's
    # own eigenvalue is off by 5e-7 there from round-off
    assert abs(sp.hemisphere_eig0(100_000)["eigenvalue"] - 2.0) < 1e-8


def test_hemisphere_second_eigenvalue_order():
    # the second eigenvalue is exactly 12 (Legendre P_3); its error falls 4x
    # per mesh doubling
    errs = [sp.hemisphere_eig0(n)["second_eigenvalue"] - 12.0 for n in (1000, 2000, 4000)]
    assert abs(errs[1]) < 5e-5
    for coarse, fine in zip(errs, errs[1:]):
        assert abs(coarse / fine - 4.0) < 0.05


def test_rayleigh_zero_potential():
    res = sp.rayleigh_min(sp.SLProblem())
    assert abs(res["mu"] - 2.0) < 5e-3
    assert res["converged"]
    # refinement moves the value toward 2 (signed error reported, not asserted)
    assert abs(res["mu"] - 2.0) <= abs(res["mu_coarse"] - 2.0) + 1e-9


def test_rayleigh_angular_mode():
    # one unit of angular momentum vanishing at the equator: P_2^1, mu = 6
    mu0 = sp.rayleigh_min(sp.SLProblem())["mu"]
    mu1 = sp.rayleigh_min(sp.SLProblem(angular_mode=1))["mu"]
    assert mu1 > mu0 + 0.5
    assert abs(mu1 - 6.0) < 5e-3


def _sl_min_solve_banded(prob, n_mesh):
    """_sl_min_once with a fresh banded solve of K at every step, as
    scipy.linalg.solve_banded gives it."""
    from scipy.linalg import solve_banded

    hh = (sp.THETA_MAX - sp.THETA_MIN) / n_mesh
    th = sp.THETA_MIN + hh * np.arange(1, n_mesh + 1)
    sech2 = 1.0 / np.cosh(th) ** 2
    diag_k = np.full(n_mesh, 2.0 / hh)
    diag_k[-1] = 1.0 / hh
    diag_k += (prob.angular_mode ** 2 + prob.w_values(th) * sech2) * hh
    off_k = np.full(n_mesh - 1, -1.0 / hh)
    mass = sech2 * hh
    ab = np.zeros((3, n_mesh))
    ab[0, 1:], ab[1], ab[2, :-1] = off_k, diag_k, off_k
    v, mu_prev = np.tanh(th), np.inf
    for _ in range(400):
        w = solve_banded((1, 1), ab, mass * v)
        v = w / np.sqrt(np.sum(mass * w * w))
        kv = diag_k * v
        kv[:-1] += off_k * v[1:]
        kv[1:] += off_k * v[:-1]
        mu = float(np.sum(v * kv) / np.sum(mass * v * v))
        if abs(mu - mu_prev) <= 1e-12 * abs(mu):
            return mu
        mu_prev = mu
    return mu_prev


@pytest.mark.parametrize("case", ["b3ct", "case2", "case3"])
@pytest.mark.parametrize("scale", [1, 2])
def test_factored_stiffness_is_the_banded_solve(case, scale):
    # K factored once and solved with its factors at every step gives the
    # floats of a fresh banded solve per step
    prob = sp.SLProblem(potential=sp.case_potential(case))
    n = scale * sp.SL_MESH
    assert sp._sl_min_once(prob, n) == _sl_min_solve_banded(prob, n)


def test_rayleigh_angular_mode_order():
    # mu(h) = 6 + C h^2 + d, with d ~ 8e-6 from the truncation of the Theta
    # range, which no mesh removes: the differences of successive meshes
    # fall 4x per doubling, and the extrapolated limit is 6 to within d
    mus = [sp._sl_min_once(sp.SLProblem(angular_mode=1), n) for n in (1000, 2000, 4000, 8000)]
    steps = np.diff(mus)
    for coarse, fine in zip(steps, steps[1:]):
        assert abs(coarse / fine - 4.0) < 0.05
    assert abs((4 * mus[-1] - mus[-2]) / 3 - 6.0) < 2e-5


def test_rayleigh_potential_monotonicity():
    # nested case potentials: 0 <= case2 <= case3 pointwise for each m
    mus = {}
    for case in ("b3ct", "case2", "case3"):
        mus[case] = sp.rayleigh_min(sp.SLProblem(potential=sp.case_potential(case, 1)))["mu"]
    assert mus["b3ct"] <= mus["case2"] + 1e-9
    assert mus["case2"] <= mus["case3"] + 1e-9


@pytest.mark.parametrize("case,m,floor", [
    ("b3ct", 1, 2.0 - 5e-3),
    ("case2", 1, 2.0),
    ("case3", 1, 6.0 - 5e-3),
    ("case3", 2, 11.0 - 5e-3),
    # 2 + (m + 1)^2; the direct cosh/sinh quotients overflow from m = 11 on
    ("case3", 11, 146.0 - 5e-3),
    ("case3", 14, 227.0 - 5e-3),
    ("case3", 20, 443.0 - 5e-3),
])
def test_exclusions(case, m, floor):
    rep = sp.exclusion_report(case, m)
    assert rep["mu_min"] >= floor
    lo, hi = rep["excluded_interval"]
    assert lo <= 0.0 <= 1.5 <= hi
    assert lo <= 0.5 <= hi  # the half-integer degree is always excluded


def _sl_meshes():
    # every mesh rayleigh_min can use: SL_MESH and four doublings
    for k in range(5):
        n = sp.SL_MESH * 2 ** k
        yield sp.THETA_MIN + (sp.THETA_MAX - sp.THETA_MIN) / n * np.arange(1, n + 1)


@pytest.mark.parametrize("m", range(1, 11))
def test_case_potentials_match_direct_formulas(m):
    # the direct cosh/sinh quotients are finite on the mesh up to m = 10;
    # the overflow-free ratios must agree with them there
    n = m + 1
    direct = {
        "case2": lambda th: 2.0 * n ** 2 * np.cosh(th) ** 2 / np.sinh(n * th) ** 2,
        "case3": lambda th: (n ** 2 * (np.cosh(n * th) ** 2 + np.cosh(th) ** 2)
                             / np.sinh(n * th) ** 2),
    }
    for case, ref in direct.items():
        w = sp.case_potential(case, m)
        for th in _sl_meshes():
            want = ref(th)
            assert np.all(np.isfinite(want))
            assert np.max(np.abs(w(th) - want) / want) <= 1e-13, case


def test_exclusion_errors():
    with pytest.raises(ValueError):
        sp.exclusion_report("case2", 0)
    with pytest.raises(ValueError):
        sp.case_potential("case9")


def test_radial_closed_forms():
    st = sp.radial_ode_solve(1.0, 1.0, (0.1, 10.0))
    aa, bb = sp.radial_closed_form("decaying", st.x_grid, 1.0)
    assert np.max(np.abs(st.a - aa) / np.abs(aa)) < 1e-8
    assert np.max(np.abs(st.b - bb) / np.abs(bb)) < 1e-8
    a0, b0 = sp.radial_closed_form("growing", 0.1, 1.0)
    st2 = sp.radial_ode_solve(1.0, 1.0, (0.1, 10.0), init=[float(a0), float(b0)])
    ga, gb = sp.radial_closed_form("growing", st2.x_grid, 1.0)
    assert np.max(np.abs(st2.a - ga) / np.abs(ga)) < 1e-8
    # independence of the two solutions
    det = aa[0] * gb[0] - bb[0] * ga[0]
    assert abs(det) > 10.0


@pytest.mark.parametrize("k", [-1.0, -5.0])
def test_decaying_closed_form_decays_for_negative_k(k):
    # (1/x) e^{-|k| x} (1, sgn k) at lambda = 1, and it decays at every lambda
    x = np.geomspace(0.1, 10.0, 50)
    a, b = sp.radial_closed_form("decaying", x, 1.0, k)
    assert np.allclose(a, np.exp(-abs(k) * x) / x, rtol=1e-13, atol=0)
    assert np.allclose(b, -a, rtol=1e-13, atol=0)
    for lam in (0.0, 0.4, 1.7, 2.0):
        a, b = sp.radial_closed_form("decaying", x, lam, k)
        assert np.all(np.diff(a) < 0) and np.all(np.diff(-b) < 0) and a[-1] < 1e-3 * a[0]
    # the default start of radial_ode_solve is that pair, so its run decays
    st = sp.radial_ode_solve(1.0, k)
    assert st.a[-1] < 1e-3 * st.a[0] and np.array_equal(st.b, -st.a)


def test_radial_identity_residual():
    st = sp.radial_ode_solve(1.3, 0.8, (0.2, 8.0), init=[1.0, 0.3])
    assert st.identity_residual < 1e-8
    st2 = sp.radial_ode_solve(0.6, -1.2, (0.3, 6.0), init=[0.2, 1.0])
    assert st2.identity_residual < 1e-8


def test_radial_identity_residual_is_scale_free():
    # the system is linear: data scaled by 1e-6 must give the same relative
    # residual, which an absolute floor or an absolute solver tolerance breaks
    st = sp.radial_ode_solve(1.3, 0.8, (0.2, 8.0), init=[1.0, 0.3])
    small = sp.radial_ode_solve(1.3, 0.8, (0.2, 8.0), init=[1e-6, 3e-7])
    assert small.identity_residual == pytest.approx(st.identity_residual, rel=1e-2)
    assert st.identity_residual > 0.0


def test_radial_identity_overflow_raises():
    # at lambda = 100 the solution grows like x^98: its squares overflow
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="overflow"):
            sp.radial_ode_solve(100.0, 1.0)


def _recorded_runs(monkeypatch):
    """Record (fun, t_span, y0) and the result of every DOP853 run the
    spectral solvers make."""
    runs = []
    dop853 = sp._dop853

    def recorded(fun, t_span, y0):
        runs.append(((fun, t_span, y0), dop853(fun, t_span, y0)))
        return runs[-1][1]

    monkeypatch.setattr(sp, "_dop853", recorded)
    return runs


def test_radial_solve_stops_where_the_squares_overflow(monkeypatch):
    # at lambda = 100 the state grows like x^99 from x = 0.1 and its squares
    # pass double range near x = 3.6: the integration stops there, after
    # about 29,200 evaluations, where running on to x = 10 took 37,499
    runs = _recorded_runs(monkeypatch)
    with pytest.raises(RuntimeError, match="overflow double precision from x = 3.61"):
        sp.radial_ode_solve(100.0, 1.0)
    [(_, run)] = runs
    assert run.overflow and run.nfev < 30_000
    last = sp._dense_read(run, run.t[-1:])
    assert np.max(np.abs(last)) == pytest.approx(math.sqrt(np.finfo(float).max))


@pytest.mark.parametrize("lam,want", [
    (1.0, True), (0.75, True), (1.25, True),
    (0.0, False), (2.0, False), (0.4, False), (1.7, False),
])
def test_admissibility_window(lam, want):
    [rep] = sp.radial_admissible([lam], 1.0)
    assert rep["admissible"] == want


def test_weighted_integral_sign_counting():
    # for an admissible solution the two weighted integrals carry opposite
    # coefficients and the combination vanishes
    for lam in (1.0, 1.2):
        sol = sp.radial_ode_solve(lam, 1.0, (14.0, 1e-12),
                                  init=[1.0, 1.0], n_out=4000)
        xs = sol.x_grid
        a2 = sol.a ** 2
        b2 = sol.b ** 2
        A = np.trapezoid(a2 * xs ** 2, xs)
        B = np.trapezoid(b2 * xs ** 2, xs)
        combo = (lam - 0.5) * A + (lam - 1.5) * B
        scale = abs(lam - 0.5) * A + abs(lam - 1.5) * B
        assert (lam - 0.5) > 0 and (lam - 1.5) < 0
        assert abs(combo) / scale < 1e-6


def test_radial_errors():
    with pytest.raises(ValueError):
        sp.radial_ode_solve(1.0, 0.0)
    with pytest.raises(ValueError):
        sp.radial_admissible([1.0], 0.0)


def _spans(runs):
    """The t_span of each recorded run."""
    return [args[1] for args, _ in runs]


@pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
def test_admissibility_integrates_once(lam, monkeypatch):
    # a well-conditioned fit: one integration in ln x down to ln(x_min/4)
    # serves the fit and both extension integrals
    runs = _recorded_runs(monkeypatch)
    [rep] = sp.radial_admissible([lam], 1.0)
    assert _spans(runs) == [(math.log(14.0), math.log(1e-4 / 4))]
    assert rep["fit_scatter"] <= 0.2


def test_admissibility_at_large_k_integrates_once(monkeypatch):
    # a k-rescaling is a shift in ln x: at lambda = 1, k = 15 one integration
    # from ln(14/k) to ln(x_min/4) = ln(1e-4/(4k)) gives the admissible verdict
    runs = _recorded_runs(monkeypatch)
    [rep] = sp.radial_admissible([1.0], 15.0)
    assert rep["admissible"] is True
    assert _spans(runs) == [(math.log(14.0 / 15.0), math.log(1e-4 / 15.0 / 4.0))]


def test_admissibility_integrates_every_lambda_at_once(monkeypatch):
    # the lambdas share one integration and come back in the order given
    runs = _recorded_runs(monkeypatch)
    reps = sp.radial_admissible((2.0, 0.0, 1.0), 1.0)
    assert len(runs) == 1
    assert [r["lambda"] for r in reps] == [2.0, 0.0, 1.0]
    assert [r["admissible"] for r in reps] == [False, False, True]


def test_spectral_suite_makes_two_radial_solves(monkeypatch):
    # one admissibility solve for lambda = 0, 1, 2, which also gives the
    # closed-form row, and one radial_ode_solve run for the identity; both in ln x
    from kwlab.suites import spectral_suite

    runs = _recorded_runs(monkeypatch)
    spectral_suite(0)
    assert _spans(runs) == [(math.log(14.0), math.log(1e-4 / 4)), (math.log(0.2), math.log(8.0))]


def test_spectral_suite_solves_each_sturm_liouville_problem_once(monkeypatch):
    # b3ct keeps W = 0, so its exclusion report's minimum is the
    # zero-potential row's: the suite makes four solves, not five
    from kwlab.suites import spectral_suite

    solve, problems = sp.rayleigh_min, []
    monkeypatch.setattr(sp, "rayleigh_min", lambda prob: problems.append(prob) or solve(prob))
    rows = {c.check_id: c for c in spectral_suite(0)}
    assert len(problems) == 4 and sp.case_potential("b3ct") is None
    assert rows["rayleigh_zero_potential"].metric == abs(solve(sp.SLProblem())["mu"] - 2.0)


@pytest.mark.parametrize("lam", [0.0, 0.4, 0.75, 1.0, 1.25, 1.7, 2.0])
def test_admissibility_is_invariant_under_k(lam):
    # (x, k) -> (x/c, c k) maps the radial system to itself, so the verdict
    # and the indicial exponent do not depend on k
    [ref] = sp.radial_admissible([lam], 1.0)
    for k in (0.3, 2.0, 13.0, 15.0, 30.0, 100.0, -5.0):
        [rep] = sp.radial_admissible([lam], k)
        assert rep["admissible"] == ref["admissible"]
        assert abs(rep["exponent_at_zero"] - ref["exponent_at_zero"]) < 1e-9


def _ab_rhs(lam, k):
    """The radial system in (a, b) and x, the form the block in (f, g) = x (a, b)
    and s = ln x is checked against."""
    def rhs(x, y):
        a, b = y
        return [(lam - 2.0) / x * a - k * b, -lam / x * b - k * a]

    return rhs


@pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
def test_shared_integration_matches_separate_runs(lam):
    # the algorithm before the shared integration: the fit and the x_min
    # integral from a run of the (a, b) system in x to x_min, the extended
    # integral from a second run, both from the K pair at x_max; the shared
    # run in ln x of all three lambdas agrees with it
    from scipy.integrate import solve_ivp

    x_min, x_max = 1e-4, 14.0
    start = [float(v) for v in sp.radial_closed_form("decaying", x_max, lam, 1.0)]

    def run(x_end):
        return solve_ivp(_ab_rhs(lam, 1.0), (x_max, x_end), start,
                         method="DOP853", rtol=1e-12, atol=1e-300, dense_output=True)

    def x2dx(sol, lo):
        xs = np.geomspace(lo, x_max, 4000)
        return np.trapezoid(xs ** 2 * np.sum(sol.sol(xs) ** 2, axis=0), xs)

    sol = run(x_min)
    xs = np.geomspace(x_min, 100 * x_min, 60)
    slope = np.polyfit(np.log(xs), np.log(xs ** 2 * np.sum(sol.sol(xs) ** 2, axis=0)), 1)[0]
    i1, i2 = x2dx(sol, x_min), x2dx(run(x_min / 4), x_min / 4)
    rep = dict(zip((0.0, 1.0, 2.0), sp.radial_admissible((0.0, 1.0, 2.0), 1.0)))[lam]
    assert rep["exponent_at_zero"] == pytest.approx(slope, rel=1e-8)
    assert rep["x2dx_integral"] == pytest.approx(i1, rel=1e-8)
    assert rep["extension_growth"] == pytest.approx(abs(i2 - i1) / i1, rel=1e-8)


def _radial_admissible_per_grid(lam, k):
    """radial_admissible reading the fit points, each integration grid and
    the closed-form grid with its own dense-output call."""
    from scipy.integrate import solve_ivp

    x_min, x_max = 1e-4 / abs(k), 14.0 / abs(k)
    p = np.array([1.0 - lam])
    y0 = x_max * np.concatenate(sp.radial_closed_form("decaying", x_max, np.array([lam]), k))
    sol = solve_ivp(sp._block_rhs(p, k), (math.log(x_max), math.log(x_min / 4.0)), y0,
                    method="DOP853", rtol=sp._RADIAL_RTOL, atol=1e-300, dense_output=True)

    def g(xs):
        return np.sum(sol.sol(np.log(xs)) ** 2, axis=0)

    def x2dx(lo):
        xs = np.geomspace(lo, x_max, 4000)
        return sp._trapz(g(xs), xs)

    xs = np.geomspace(x_min, 100 * x_min, 60)
    logs = np.log(g(xs))
    slope = float(np.polyfit(np.log(xs), logs, 1)[0])
    scatter = float(np.max(np.abs(np.diff(logs) / np.diff(np.log(xs)) - slope)))
    i1, i2 = x2dx(x_min), x2dx(x_min / 4.0)
    growth = abs(i2 - i1) / max(i1, 1e-300)
    grid = np.geomspace(x_min, x_max, 4000)
    ab = sol.sol(np.log(grid)) / grid
    exact = sp.radial_closed_form("decaying", grid, lam, k)
    error = max(float(np.max(np.abs(ab[j] - exact[j]) / np.abs(exact[j]))) for j in (0, 1))
    return {"lambda": lam, "k": k, "admissible": bool(slope > -1.0 + 0.05 and growth < 0.05),
            "exponent_at_zero": slope, "fit_scatter": scatter, "extension_growth": growth,
            "x2dx_integral": i1, "closed_form_error": error}


# the radial runs that the DOP853 stepper is held to scipy's on: the
# spectral suite's inward run of lambda = 0, 1, 2 stacked, its outward
# identity run, and the admissibility runs of the (lambda, k) grid below
SUITE_RUNS = {
    "inward": lambda: sp.radial_admissible([0.0, 1.0, 2.0], 1.0),
    "outward": lambda: sp.radial_ode_solve(1.3, 0.8, (0.2, 8.0), init=[1.0, 0.3]),
}
GRID_RUNS = {f"lam={lam:g},k={k:g}": (lambda lam=lam, k=k: sp.radial_admissible([lam], k))
             for lam in (0.0, 0.75, 1.0, 1.25, 2.0) for k in (1.0, -5.0, 13.0)}


def _scipy_run(fun, t_span, y0):
    """The same run by scipy.integrate.solve_ivp, the stepper's oracle."""
    from scipy.integrate import solve_ivp

    return solve_ivp(fun, t_span, y0, method="DOP853", rtol=sp._RADIAL_RTOL,
                     atol=sp._RADIAL_ATOL, dense_output=True)


@pytest.mark.parametrize("name", [*SUITE_RUNS, *GRID_RUNS])
def test_dop853_is_solve_ivp_bit_for_bit(name, monkeypatch):
    # the step points, each segment's t_old, h, y_old and F, and nfev
    runs = _recorded_runs(monkeypatch)
    {**SUITE_RUNS, **GRID_RUNS}[name]()
    [(args, run)] = runs
    want = _scipy_run(*args)
    parts = want.sol.interpolants
    assert run.nfev == want.nfev and not run.overflow
    assert run.t.tobytes() == want.t.tobytes()
    for got, field_values in [(run.t_old, [p.t_old for p in parts]), (run.h, [p.h for p in parts]),
                              (run.y_old, [p.y_old for p in parts]), (run.F, [p.F for p in parts])]:
        assert got.tobytes() == np.array(field_values).tobytes()


@pytest.mark.parametrize("run", list(SUITE_RUNS))
def test_dense_read_is_the_dense_output_bit_for_bit(run, monkeypatch):
    # _dense_read against scipy's OdeSolution of the same run, at unsorted
    # points, every step point ts (both endpoints among them) and points
    # just outside the span, which take the end segments
    runs = _recorded_runs(monkeypatch)
    SUITE_RUNS[run]()
    [(args, got_run)] = runs
    sol = _scipy_run(*args)
    ts = sol.sol.ts
    lo, hi = min(ts[0], ts[-1]), max(ts[0], ts[-1])
    rng = np.random.default_rng(0)
    s = np.concatenate([rng.uniform(lo, hi, 500), ts, rng.permutation(ts),
                        [lo - 1e-3, hi + 1e-3, ts[0], ts[-1]]])
    want = sol.sol(s)
    got = sp._dense_read(got_run, s)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_dop853_tableau_is_scipys():
    # the coefficients run from scipy's file are the ones its DOP853 steps with
    from scipy.integrate import DOP853

    tab = sp._dop853_tableau()
    n = tab.N_STAGES
    ours = {"A": tab.A[:n, :n], "B": tab.B, "C": tab.C[:n], "E3": tab.E3, "E5": tab.E5,
            "D": tab.D, "A_EXTRA": tab.A[n + 1:], "C_EXTRA": tab.C[n + 1:]}
    for name, value in ours.items():
        assert np.array_equal(value, getattr(DOP853, name)), name


def test_dop853_tableau_missing_raises_import_error(monkeypatch, tmp_path):
    # a scipy without the coefficients file is an ImportError naming the path
    import scipy

    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    sp._dop853_tableau.cache_clear()
    try:
        with pytest.raises(ImportError, match="dop853_coefficients.py"):
            sp._dop853_tableau()
    finally:
        sp._dop853_tableau.cache_clear()


@pytest.mark.parametrize("k", [1.0, -5.0, 13.0])
@pytest.mark.parametrize("lam", [0.0, 0.75, 1.0, 1.25, 2.0])
def test_one_dense_output_read_equals_one_per_grid(lam, k):
    assert sp.radial_admissible([lam], k) == [_radial_admissible_per_grid(lam, k)]


@pytest.mark.parametrize("k", [-5.0, 13.0])
def test_inward_run_matches_bessel_k(k):
    # off the half-integer orders the K pair is no elementary function: the
    # inward run from the pair at x_max follows it over [x_min, x_max], and
    # the pair is x^{-1/2} (K_{3/2-lam}, sgn k K_{1/2-lam})(|k| x) up to one
    # constant factor
    from scipy.special import kv

    lams = (0.4, 0.75, 1.7)
    for rep in sp.radial_admissible(lams, k):
        assert rep["closed_form_error"] <= 1e-9
    x = np.geomspace(1e-4 / abs(k), 14.0 / abs(k), 50)
    for lam in lams:
        a, b = sp.radial_closed_form("decaying", x, lam, k)
        ratio_a = a * np.sqrt(x) / kv(1.5 - lam, abs(k) * x)
        ratio_b = b * np.sqrt(x) / kv(0.5 - lam, abs(k) * x)
        assert np.allclose(ratio_a, ratio_a[0], rtol=1e-14, atol=0)
        assert np.allclose(ratio_b, math.copysign(ratio_a[0], k), rtol=1e-14, atol=0)
