"""1D spectral reductions: Hardy ratios, hemisphere eigenvalues, exclusion
windows, and the radial ODE system of the mode-by-mode adjoint analysis.

Hemisphere reduction.  The round metric on the unit hemisphere S+ (the x = 1
locus in (0,inf) x R^2), written in the profile coordinate Theta and the
longitude phi, is conformally flat with factor sech^2(Theta).  The Dirichlet
integral of a function is conformally invariant in two dimensions, so for a
separated function f(Theta) e^{i n phi} the quadratic forms reduce to

    energy(f) = int (f'^2 + n^2 f^2) dTheta + int W(Theta) sech^2(Theta) f^2 dTheta
    mass(f)   = int f^2 sech^2(Theta) dTheta

where W is the potential as it appears multiplying |f|^2 in the hemisphere
integral (round measure); the sech^2 factor is the conversion to the flat
dTheta measure and applies to every zeroth-order term, mass and potential
alike.  Theta = 0 is the equator (Dirichlet), Theta -> inf is the pole.

The generalized Rayleigh minimum mu = min energy/mass bounds the allowed
homogeneity degrees lambda of separated solutions through
lambda(lambda -+ 1) > mu; ``exclusion_report`` turns the computed mu into
the excluded lambda interval for each reduced sector.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import model

# scipy is imported inside the solvers that use it, so that importing kwlab
# (and every command that runs no spectral solve) loads numpy alone; the
# spectral solvers load scipy.special and scipy.linalg, and no command loads
# scipy.integrate: the radial integrator steps DOP853 here (_dop853)


# ---------------------------------------------------------------------------
# Hardy-type ratios


def _trapz(y, x):
    return float(np.trapezoid(y, x))


def _halfline_quotient(fv, dv, grid, grid2) -> float:
    """int f^2/t^2 dt over int f'^2 dt from f, f' and t^2 on grid."""
    return _trapz(fv * fv / grid2, grid) / _trapz(dv * dv, grid)


def hardy_halfline_ratio(f: Callable, df: Callable, grid=None) -> float:
    """int f^2/t^2 dt over int f'^2 dt on (0, inf); the sharp constant is 4."""
    if grid is None:
        grid = np.geomspace(1e-10, 60.0, 20000)
    return _halfline_quotient(f(grid), df(grid), grid, grid ** 2)


def hardy_near_extremal_sweep() -> dict:
    """Ratios for f = t^(1/2+eps) e^{-t}; they approach 4 from below.

    The mass integral behaves like Gamma(2 eps) ~ 1/(2 eps), so the grid has
    to reach far below machine-scale t to capture it; the integrand powers
    stay well inside double range.  e^{-t} and t^2 are taken once for the
    grid, t^p once per eps.
    """
    grid = np.geomspace(1e-90, 90.0, 40000)
    decay = np.exp(-grid)
    grid2 = grid ** 2
    out = {}
    for eps in (0.2, 0.1, 0.05, 0.02, 0.01):
        p = 0.5 + eps
        tp = grid ** p
        out[eps] = _halfline_quotient(tp * decay, (p * grid ** (p - 1) - tp) * decay,
                                      grid, grid2)
    return out


def hardy_cone_ratio(s: float, powers) -> dict:
    """{a: int psi^2/x^2 over int |grad psi|^2} for psi = t^a exp(-x^2/(2 s^2))
    at each a in powers, on the half-space t > 0 (x3-invariant); the
    constant is 4/9.

    2D trapezoid quadrature in (t, r) with the measure 2 pi r dr dt, on the
    same 600 nodes up to 8 s along each axis.  psi = t^a e^{-t^2/2s^2} .
    e^{-r^2/2s^2} and both its gradient terms are products of 1D factors, so
    the energy is a sum of products of 1D trapezoids; the one factor that does
    not separate is 1/x^2 = 1/(t^2 + r^2), and the mass is one weighted
    product u . K . v with K = 1/(t_i^2 + r_j^2), the only 2D array, built
    once for every power.
    """
    x = np.linspace(1e-6, 8.0 * s, 600)  # the t nodes and the r nodes
    dx = np.diff(x)
    w = np.zeros_like(x)
    w[:-1] += dx / 2
    w[1:] += dx / 2
    gauss = np.exp(-x * x / (2 * s * s))
    # the r factors of psi^2 and (d psi/dr)^2 with the measure r dr (2 pi
    # cancels in the ratio)
    mass_r = w * x * gauss * gauss
    grad_r = w * x * (x / s ** 2 * gauss) ** 2
    kernel = np.add.outer(x * x, x * x)
    np.divide(1.0, kernel, out=kernel)  # K = 1/x^2, in place
    out = {}
    for a in powers:
        # the t factors of psi^2 and (d psi/dt)^2
        mass_t = w * (x ** a * gauss) ** 2
        grad_t = w * ((a * x ** (a - 1) - x ** (a + 1) / s ** 2) * gauss) ** 2
        num = mass_t @ kernel @ mass_r
        den = grad_t.sum() * mass_r.sum() + mass_t.sum() * grad_r.sum()
        out[a] = float(num / den)
    return out


def hardy_profile_ratio(kappas) -> dict:
    """{kappa: int f^2/sinh^2 over int f'^2/cosh^2} on (0, inf) for
    f = tanh^kappa at each kappa in kappas; bounded by 4 for bounded f
    vanishing at 0.  tanh, sinh^2 and cosh^2 are taken once for the grid."""
    th = np.geomspace(1e-8, 40.0, 40000)
    tanh = np.tanh(th)
    sinh2 = np.sinh(th) ** 2
    cosh2 = np.cosh(th) ** 2
    out = {}
    for kappa in kappas:
        f = tanh ** kappa
        df = kappa * tanh ** (kappa - 1) / cosh2
        out[kappa] = _trapz(f * f / sinh2, th) / _trapz(df * df / cosh2, th)
    return out


def hardy_suite() -> dict:
    """Supremum ratios for the three weighted inequalities, with their
    constants; the verdicts are ``suites.hardy_checks``."""
    base = hardy_halfline_ratio(lambda t: t * np.exp(-t),
                                lambda t: np.exp(-t) * (1 - t))
    sweep = hardy_near_extremal_sweep()
    cone = max(r for s in (0.7, 1.0, 1.6) for r in hardy_cone_ratio(s, (1.0, 2.0)).values())
    profile = max(hardy_profile_ratio((1.0, 2.0, 4.0)).values())
    return {
        "halfline": {
            "constant": 4.0,
            "ratio_base": base,
            "ratio_sweep": sweep,
            "ratio_sup": max(max(sweep.values()), base),
            "sweep_reaches": max(sweep.values()),
        },
        "cone": {"constant": 4.0 / 9.0, "ratio_sup": cone},
        "profile": {"constant": 4.0, "ratio_sup": profile},
    }


# ---------------------------------------------------------------------------
# Hemisphere polar eigenproblem


def hemisphere_eig0(n_mesh: int = 2000) -> dict:
    """Lowest two Dirichlet eigenvalues of -(1/sin) d/dtheta (sin d/dtheta .)
    on the polar interval [0, pi/2]: Dirichlet at pi/2, natural regularity at 0.

    In x = cos(theta) this is Legendre's equation, and the Dirichlet
    condition at x = 0 keeps the odd P_l: the eigenvalues are l(l + 1) =
    2, 12, ..., the lowest with eigenfunction cos(theta).  Both computed
    values converge as h^2.  Cell-centered conservative differences; the
    sin(theta) face weight vanishes at theta = 0, so regularity there is
    automatic.

    The lowest eigenvalue is the discrete Rayleigh quotient f^T K f / f^T M f
    of the computed eigenvector: the solver's own eigenvalue carries
    round-off that grows like n^2 eps and swamps the O(h^2) discretization
    error beyond about 10^4 cells, while the quotient's error is quadratic
    in the eigenvector's.
    """
    from scipy.linalg import eigh_tridiagonal

    if n_mesh < 100:
        raise ValueError("mesh too coarse")
    hh = (math.pi / 2) / n_mesh
    centers = (np.arange(n_mesh) + 0.5) * hh
    faces = np.arange(n_mesh + 1) * hh
    sf = np.sin(faces)
    mass = np.sin(centers) * hh
    main = (sf[:-1] + sf[1:]) / hh
    main[-1] = sf[-2] / hh + 2.0 * sf[-1] / hh  # Dirichlet ghost at pi/2
    off = -sf[1:-1] / hh
    d = main / mass
    e = off / np.sqrt(mass[:-1] * mass[1:])
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 1))
    f = vecs[:, 0] / np.sqrt(mass)  # undo the symmetrizing similarity
    f = f / np.sqrt(np.sum(f * f * mass))
    # f^T K f face by face: the sin-weighted jumps plus the Dirichlet ghost
    energy = (np.sum(sf[1:-1] * np.diff(f) ** 2) + 2.0 * sf[-1] * f[-1] ** 2) / hh
    rayleigh = energy / np.sum(f * f * mass)
    ref = np.cos(centers)
    ref = ref / np.sqrt(np.sum(ref * ref * mass))
    if np.dot(f, ref * mass) < 0:
        f = -f
    dist = math.sqrt(np.sum((f - ref) ** 2 * mass))
    return {
        "eigenvalue": float(rayleigh),
        "second_eigenvalue": float(vals[1]),
        "eigenfunction_distance_to_cos": dist,
        "theta": centers,
        "eigenfunction": f,
    }


# ---------------------------------------------------------------------------
# Sturm-Liouville reductions in the profile coordinate


# The Sturm-Liouville truncation [THETA_MIN, THETA_MAX] of the profile
# coordinate and the coarsest mesh that rayleigh_min refines from.
THETA_MIN = 1e-6
THETA_MAX = 30.0
SL_MESH = 2000


@dataclass
class SLProblem:
    """1D reduction on Theta in [THETA_MIN, THETA_MAX].

    The equator end THETA_MIN carries the Dirichlet condition (it is the
    true hemisphere boundary); the pole end THETA_MAX gets the natural
    (regularity) condition, since Theta -> inf is an interior point of the
    hemisphere where the coordinate merely degenerates.  A Dirichlet wall at
    the pole end would bias the minimum upward by O(1/THETA_MAX), i.e. far
    beyond the target accuracy at this truncation.

    potential is W(Theta) as it multiplies |f|^2 in the hemisphere (round
    measure) integral; it enters the flat-measure energy with the same
    sech^2 weight as the mass term.  W must be >= 0 on the mesh.
    """

    angular_mode: int = 0
    potential: Callable | None = None

    def __post_init__(self):
        if self.angular_mode < 0:
            raise ValueError("angular mode must be >= 0")

    def w_values(self, th: np.ndarray) -> np.ndarray:
        if self.potential is None:
            return np.zeros_like(th)
        w = np.asarray(self.potential(th), dtype=float)
        if np.any(w < -1e-12):
            raise ValueError("potential must be nonnegative on the mesh")
        return w


def _sl_min_once(prob: SLProblem, n_mesh: int) -> float:
    """Smallest generalized Rayleigh quotient by inverse-power iteration.

    The mass weight sech^2 underflows to ~1e-26 at THETA_MAX,
    which would wreck a symmetrized dense/tridiagonal eigensolve (absolute
    backward error scales with the matrix norm).  Inverse iteration on
    K^{-1} M only ever factorizes the well-conditioned stiffness K, so the
    tiny mass entries are harmless.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    hh = (THETA_MAX - THETA_MIN) / n_mesh
    th = THETA_MIN + hh * np.arange(1, n_mesh + 1)
    sech2 = 1.0 / np.cosh(th) ** 2
    wv = prob.w_values(th)
    diag_k = np.full(n_mesh, 2.0 / hh)
    diag_k[-1] = 1.0 / hh  # natural condition at the pole end
    diag_k += (prob.angular_mode ** 2 + wv * sech2) * hh
    off_k = np.full(n_mesh - 1, -1.0 / hh)
    mass = sech2 * hh
    # K = L U once (LAPACK's gttrf, partial pivoting); each step then only
    # solves with the factors, the same floats as a fresh gtsv solve of K
    dl, d, du, du2, ipiv, info = dgttrf(off_k, np.asarray_chkfinite(diag_k), off_k)
    if info:
        raise np.linalg.LinAlgError("singular stiffness matrix")
    v = np.tanh(th)
    mu_prev = np.inf
    for _ in range(400):
        w = dgttrs(dl, d, du, du2, ipiv, mass * v)[0]
        v = w / np.sqrt(np.sum(mass * w * w))
        kv = diag_k * v
        kv[:-1] += off_k * v[1:]
        kv[1:] += off_k * v[:-1]
        mu = float(np.sum(v * kv) / np.sum(mass * v * v))
        if abs(mu - mu_prev) <= 1e-12 * abs(mu):
            return mu
        mu_prev = mu
    return mu_prev


def rayleigh_min(prob: SLProblem) -> dict:
    """Minimum generalized Rayleigh quotient, refined from SL_MESH cells until
    successive mesh doublings agree to 5e-4 relative (3 significant digits),
    in at most four doublings; "n_mesh" is the finest mesh used."""
    n = SL_MESH
    prev = _sl_min_once(prob, n)
    for _ in range(4):
        n *= 2
        cur = _sl_min_once(prob, n)
        if abs(cur - prev) <= 5e-4 * abs(cur):
            return {"mu": cur, "mu_coarse": prev, "n_mesh": n, "converged": True}
        prev = cur
    raise RuntimeError("Rayleigh minimum did not converge under mesh doubling")


def case_potential(case: str, m: int = 1) -> Callable | None:
    """Round-measure potentials of the three decoupled sectors, read from
    ``model.profile_factors`` on the unit hemisphere, where t = tanh Theta:
    W = 8 |phi|^2 ('case2') and 4 (|phi|^2 + alpha^2) ('case3').

    'b3ct' keeps W = 0: that sector only needs the kinetic lower bound 2
    (its matrix potential is nonnegative), so the commutator term is
    deliberately dropped as a lower-bound substitution.
    """
    if case == "b3ct":
        return None
    if case not in ("case2", "case3"):
        raise ValueError(f"unknown case {case!r}")

    def potential(th):
        pf = model.profile_factors(m, th)
        phi2, alpha2 = ((pf[f] / (2.0 * np.tanh(th))) ** 2
                        for f in ("phi_factor", "alpha_factor"))
        return 8.0 * phi2 if case == "case2" else 4.0 * (phi2 + alpha2)

    return potential


def exclusion_report(case: str, m: int = 1) -> dict:
    """Rayleigh minimum of the case and the lambda interval it excludes.

    'b3ct' and 'case2' exclude the lambda with lambda(lambda-1) <= mu;
    'case3' those with lambda(lambda+1) <= mu.  The excluded interval
    (lo, hi) must contain [0, 3/2]; ``suites.exclusion_checks`` makes that
    verdict.
    """
    if case in ("case2", "case3") and m < 1:
        raise ValueError("cases with a pole index need m >= 1")
    prob = SLProblem(potential=case_potential(case, m))
    res = rayleigh_min(prob)
    mu = res["mu"]
    disc = math.sqrt(1.0 + 4.0 * mu)
    if case in ("b3ct", "case2"):
        lo, hi = (1.0 - disc) / 2.0, (1.0 + disc) / 2.0
        quad = "lambda(lambda-1)"
    else:
        lo, hi = (-1.0 - disc) / 2.0, (-1.0 + disc) / 2.0
        quad = "lambda(lambda+1)"
    return {
        "case": case,
        "m": m,
        "mu_min": mu,
        "quadratic": quad,
        "excluded_interval": (lo, hi),
        "n_mesh": res["n_mesh"],
    }


# ---------------------------------------------------------------------------
# The radial ODE system of the mode-by-mode analysis
#
# In (f, g) = x (a, b) the radial system on the Fourier mode k is the 2x2
# block of the operator at the Nahm pole with p = 1 - lambda,
#
#     f' = -p f/x - k g,    g' = p g/x - k f,
#
# integrated in s = ln x, where d/ds = x d/dx.  Its solution decaying at
# infinity is x^{1/2} (K_{p+1/2}, sgn k K_{p-1/2})(|k| x).

# the relative tolerance of every radial integration: the inward run's
# deviation from the Bessel-K pair at lambda = 0, 1, 2 reads 3.0e-9 at 1e-11
# and 3.0e-10 at 1e-12, against the 1e-9 the closed-form tests allow
_RADIAL_RTOL = 1e-12
_RADIAL_ATOL = 1e-300
_SQRT_MAX = math.sqrt(sys.float_info.max)  # the largest |x| whose square is finite
# DOP853's step-size control (Hairer, Norsett, Wanner, Solving ODEs I, II.4
# and II.10), as scipy's RungeKutta applies it: the new step is the old one
# times SAFETY err^(-1/8), within [MIN_FACTOR, MAX_FACTOR]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8  # the error estimator's order is 7


@dataclass
class RadialODEState:
    """A radial solution sampled as (a, b) on x_grid; sol is the DOP853Run
    of (f, g) in s = ln x, whose dense output _dense_read reads."""
    lam: float
    k: float
    x_grid: np.ndarray
    a: np.ndarray
    b: np.ndarray
    identity_residual: float = 0.0
    sol: object = field(default=None, repr=False)


@functools.cache
def _dop853_tableau():
    """scipy's DOP853 coefficients, run from the file
    scipy/integrate/_ivp/dop853_coefficients.py (numpy alone) without
    loading scipy.integrate, whose package import brings scipy.optimize,
    sparse and spatial: about 20 MB and 0.2 s a process.  A scipy without
    that file raises ImportError naming the path."""
    import importlib.util

    import scipy

    path = Path(scipy.__file__).parent / "integrate" / "_ivp" / "dop853_coefficients.py"
    if not path.is_file():
        raise ImportError(f"the DOP853 coefficients are not at {path}")
    spec = importlib.util.spec_from_file_location("kwlab._dop853_coefficients", path)
    tableau = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tableau)
    return tableau


@dataclass
class DOP853Run:
    """A DOP853 run: the step points t (t[0] the start) and, per step, its
    dense output's t_old, h, y_old and seven coefficients F
    (steps, 7, states).  overflow says the run stopped early, at
    t[-1] = the point where max |y| reaches sqrt(max double)."""
    t: np.ndarray
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    F: np.ndarray
    nfev: int
    overflow: bool


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853(fun, t_span, y0) -> DOP853Run:
    """solve_ivp(fun, t_span, y0, method="DOP853", rtol=_RADIAL_RTOL,
    atol=_RADIAL_ATOL, dense_output=True), bit for bit: scipy's initial
    step, Runge-Kutta step, 5/3 error norm, step control and dense-output
    coefficients, with the same numpy operations in the same order
    (tests/test_spectral.py holds every array and nfev to scipy's).  The
    run stops after the first step where some |y| reaches sqrt(max double),
    and t[-1] becomes the point where it does, as scipy's terminal event
    puts it; a step size below the spacing of doubles raises RuntimeError."""
    tab = _dop853_tableau()
    n_stages = tab.N_STAGES
    A, B, C = tab.A[:n_stages, :n_stages], tab.B, tab.C[:n_stages]
    A_extra, C_extra = tab.A[n_stages + 1:], tab.C[n_stages + 1:]
    rtol, atol = _RADIAL_RTOL, _RADIAL_ATOL
    t0, t_bound = map(float, t_span)
    direction = np.sign(t_bound - t0)
    t, y = t0, y0
    f = fun(t, y)

    # the initial step (Solving ODEs I, II.4)
    interval = abs(t_bound - t0)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0 * direction, y + h0 * direction * f)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, interval)
    nfev = 2

    K_ext = np.empty((tab.N_STAGES_EXTENDED, y.size))
    K = K_ext[:n_stages + 1]
    ts, t_olds, hs, y_olds, Fs = [t0], [], [], [], []
    done = overflow = False
    while not (done or overflow):
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError("integration failed: "
                                   "Required step size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
                K[s] = fun(t + c * h, y + np.dot(K[:s].T, a[:s]) * h)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            nfev += n_stages
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(K.T, tab.E5) / scale
            err3 = np.dot(K.T, tab.E3) / scale
            err5_2, err3_2 = np.linalg.norm(err5) ** 2, np.linalg.norm(err3) ** 2
            if err5_2 == 0 and err3_2 == 0:
                error = 0.0
            else:
                error = np.abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale))
            if error < 1:
                factor = (_MAX_FACTOR if error == 0
                          else min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        done = direction * (t - t_bound) >= 0
        # the dense output: three more stages, then seven coefficients
        for s, (a, c) in enumerate(zip(A_extra, C_extra), start=n_stages + 1):
            K_ext[s] = fun(t_old + c * h, y_old + np.dot(K_ext[:s].T, a[:s]) * h)
        nfev += len(C_extra)
        F = np.empty((tab.INTERPOLATOR_POWER, y.size))
        delta_y = y - y_old
        F[0] = delta_y
        F[1] = h * K_ext[0] - delta_y
        F[2] = 2 * delta_y - h * (f + K_ext[0])
        F[3:] = h * np.dot(tab.D, K_ext)
        ts.append(t)
        t_olds.append(t_old)
        hs.append(h)
        y_olds.append(y_old)
        Fs.append(F)
        overflow = np.max(np.abs(y)) >= _SQRT_MAX
    run = DOP853Run(t=np.array(ts), t_old=np.array(t_olds), h=np.array(hs),
                    y_old=np.stack(y_olds), F=np.stack(Fs), nfev=nfev, overflow=overflow)
    if overflow:
        run.t[-1] = _overflow_point(run)
    return run


def _overflow_point(run: DOP853Run) -> float:
    """The s on the run's last step where max |y| of the dense output
    reaches sqrt(max double), by bisection to scipy's event tolerance
    4 eps (1 + |s|)."""
    below, above = run.t_old[-1], run.t[-1]
    while abs(above - below) > 4 * sys.float_info.epsilon * (1 + abs(above)):
        mid = 0.5 * (below + above)
        if np.max(np.abs(_dense_read(run, np.array([mid])))) < _SQRT_MAX:
            below = mid
        else:
            above = mid
    return above


def _block_rhs(p: np.ndarray, k: float):
    # d(f, g)/ds = (-p f - k x g, p g - k x f) for every p at once; y holds
    # the f of each p, then the g of each p, and swap exchanges the halves
    diag = np.concatenate([-p, p])
    swap = np.roll(np.arange(2 * p.size), p.size)

    def rhs(s, y):
        return diag * y - k * math.exp(s) * y[swap]

    return rhs


def _block_solve(p: np.ndarray, k: float, x_span, y0) -> DOP853Run:
    """The one radial integrator: the blocks of every p in the array p,
    stacked, from x_span[0] to x_span[1] in s = ln x, starting from
    y0 = (f of each p, g of each p).  The result's dense output is in s.

    Every caller squares the state, so RuntimeError is raised for a start
    state that is not finite, passes sqrt(max double) (beyond which its
    square overflows) or underflowed to all zeros, and at the first step
    where some |f| or |g| passes sqrt(max double), where the integration
    stops."""
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.abs(y0) <= _SQRT_MAX):
        raise RuntimeError("the start state's squares overflow double precision")
    if not np.any(y0):
        raise RuntimeError("the start state underflows to zero")
    run = _dop853(_block_rhs(p, k), (math.log(x_span[0]), math.log(x_span[1])), y0)
    if run.overflow:
        raise RuntimeError("the solution's squares overflow double precision "
                           f"from x = {math.exp(run.t[-1]):.3g} on")
    return run


def _dense_read(run: DOP853Run, s: np.ndarray) -> np.ndarray:
    """The run's dense output at the 1D points s, in one vectorized pass
    over every point: (states, points), bit for bit what scipy's
    OdeSolution gives.

    Each point takes the segment OdeSolution gives it (searchsorted on the
    ascending step points, side "left" for an outward run and "right",
    mirrored, for an inward one, clipped to the segments), and the
    interpolants' recurrence runs on all points at once, as
    Dop853DenseOutput runs it on each segment's: y += F_j, then y *= x or
    y *= 1 - x, for the coefficients F_j from the last, then y += y_old,
    with x = (s - t_old) / h.  The coefficients are gathered one at a time.
    """
    n = run.h.size
    ascending = run.t[-1] >= run.t[0]
    seg = np.searchsorted(run.t if ascending else run.t[::-1], s,
                          side="left" if ascending else "right") - 1
    np.clip(seg, 0, n - 1, out=seg)
    if not ascending:
        seg = n - 1 - seg
    x = ((s - run.t_old[seg]) / run.h[seg])[:, None]
    F = run.F
    y = np.zeros((s.size, F.shape[2]))
    for i in range(F.shape[1]):
        y += F[seg, -1 - i]
        y *= x if i % 2 == 0 else 1 - x
    y += run.y_old[seg]
    return y.T


def radial_closed_form(kind: str, x, lam, k: float = 1.0):
    """The Bessel solutions (a, b) of the radial system; x and lam broadcast.

    'decaying' is c x^{-1/2} (K_{3/2-lam}, sgn k K_{1/2-lam})(|k| x), the
    solution that decays at infinity; 'growing' is the I pair
    c x^{-1/2} (I_{3/2-lam}, -sgn k I_{1/2-lam})(|k| x), which grows at
    infinity and is admissible at 0 for lam < 3/2.  c = (2|k|/pi)^{1/2}
    makes the lambda = 1 decaying pair (1/x) e^{-|k| x} (1, sgn k).
    """
    from scipy.special import iv, kv

    bessel = {"decaying": (kv, 1.0), "growing": (iv, -1.0)}
    if kind not in bessel:
        raise ValueError(kind)
    fn, sign = bessel[kind]
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    z = abs(k) * x
    c = np.sqrt(2.0 * abs(k) / math.pi / x)
    return c * fn(1.5 - lam, z), sign * math.copysign(1.0, k) * c * fn(0.5 - lam, z)


def radial_ode_solve(lam: float, k: float, x_range=None, init=None,
                     n_out: int = 400) -> RadialODEState:
    """Integrate the radial system from x_range[0] to x_range[1].

    x_range defaults to (0.1/|k|, 10/|k|): the system is invariant under
    (x, k) -> (x/c, c k) (see radial_admissible), so at every |k| that window
    spans the same part of the solution, from x|k| = 0.1 to 10.
    init is (a, b) at the left endpoint; it defaults to the lambda = 1
    decaying pair (1/x) e^{-|k| x} (1, sgn k) there, for every lambda.  The
    returned state carries the residual of the conservation identity

        x^3/2 d/dx(b^2 - a^2) + x^2 ((lam-2) a^2 + lam b^2) = 0,

    evaluated with 4th-order differences of the dense output and divided by
    the size of its terms, x^3/2 |d/dx(b^2 - a^2)| + x^2 (|lam-2| a^2 +
    |lam| b^2).  A term that is not finite raises RuntimeError.
    """
    if k == 0:
        raise ValueError("need k != 0")
    x0, x1 = (0.1 / abs(k), 10.0 / abs(k)) if x_range is None else x_range
    if init is None:
        init = radial_closed_form("decaying", x0, 1.0, k)
    sol = _block_solve(np.array([1.0 - lam]), k, (x0, x1), x0 * np.asarray(init, dtype=float))

    def ab(x):
        return _dense_read(sol, np.log(x)) / x

    xg = np.geomspace(min(x0, x1), max(x0, x1), n_out)
    a, b = ab(xg)
    # identity residual with independent differencing of the dense output at
    # 40 points, over the size of the identity's terms (the solution spans
    # many decades); points where every term underflows to 0 carry no test
    x = np.geomspace(min(x0, x1) * 1.1, max(x0, x1) * 0.9, 40)
    hh = 1e-3 * x
    av, bv = ab((x + hh * np.arange(-2, 3)[:, None]).ravel()).reshape(2, 5, -1)
    g = bv ** 2 - av ** 2
    d = (-g[4] + 8 * g[3] - 8 * g[1] + g[0]) / (12 * hh)
    t1 = 0.5 * x ** 3 * d
    t2 = x ** 2 * ((lam - 2.0) * av[2] ** 2 + lam * bv[2] ** 2)
    size = np.abs(t1) + x ** 2 * (abs(lam - 2.0) * av[2] ** 2 + abs(lam) * bv[2] ** 2)
    if not np.all(np.isfinite([t1, t2, size])):
        raise RuntimeError("the identity's terms overflow double precision")
    live = size > 0
    res = float(np.max(np.abs(t1 + t2)[live] / size[live], initial=0.0))
    return RadialODEState(lam=lam, k=k, x_grid=xg, a=a, b=b,
                          identity_residual=res, sol=sol)


def radial_admissible(lams, k: float) -> list[dict]:
    """For each lambda in lams, decide whether the solution decaying at
    infinity has finite int (a^2 + b^2) x^2 dx near 0; one report per lambda,
    in order.

    The system is invariant under (x, k) -> (x/c, c k), which in s = ln x is
    the shift s -> s - ln c, so the computation is the same at every |k|.  It
    integrates inward from x_max = 14/|k|, starting on the decaying Bessel-K
    pair (radial_closed_form); fits the local exponent of
    g = x^2 (a^2 + b^2) = f^2 + g^2 over [x_min, 100 x_min] with
    x_min = 1e-4/|k| and calls the solution admissible when the fitted
    exponent exceeds -1 and the integral converges under range extension
    (its value from x_min and from x_min/4 agree to 5%).  An ill-conditioned
    fit (local slopes scattered by more than 0.2) raises RuntimeError.
    "closed_form_error" is the largest relative deviation of (a, b) from
    the K pair over [x_min, x_max].

    One integration, down to x_min/4, serves every lambda: the blocks of
    all lambdas are stacked, and the fit, both extension integrals and the
    closed-form deviation are read from one call of its dense output.  A
    solution that overflows on its way in (large |lam|) raises RuntimeError.
    """
    if k == 0:
        raise ValueError("need k != 0")
    lam = np.asarray(lams, dtype=float)
    x_min = 1e-4 / abs(k)
    x_max = 14.0 / abs(k)
    y0 = x_max * np.concatenate(radial_closed_form("decaying", x_max, lam, k))
    sol = _block_solve(1.0 - lam, k, (x_max, x_min / 4.0), y0)

    # the fit points and both integration grids, read in one dense-output pass
    xs = np.geomspace(x_min, 100 * x_min, 60)
    grid1 = np.geomspace(x_min, x_max, 4000)
    grid2 = np.geomspace(x_min / 4.0, x_max, 4000)
    x_all = np.concatenate([xs, grid1, grid2])
    fg = _dense_read(sol, np.log(x_all)).reshape(2, lam.size, -1)
    g_all = np.sum(fg ** 2, axis=0)
    ab1 = fg[:, :, len(xs):len(xs) + len(grid1)] / grid1
    exact = np.array(radial_closed_form("decaying", grid1, lam[:, None], k))
    closed_form_error = np.max(np.abs(ab1 - exact) / np.abs(exact), axis=(0, 2))
    log_xs = np.log(xs)
    out = []
    for lam_i, g, error in zip(lams, g_all, closed_form_error):
        g_fit, g1, g2 = np.split(g, [len(xs), len(xs) + len(grid1)])
        logs = np.log(g_fit)
        slope = float(np.polyfit(log_xs, logs, 1)[0])
        scatter = float(np.max(np.abs(np.diff(logs) / np.diff(log_xs) - slope)))
        if scatter > 0.2:
            raise RuntimeError("ambiguous indicial fit")
        # convergence of the integral under extension of the lower endpoint
        i1 = _trapz(g1, grid1)
        i2 = _trapz(g2, grid2)
        if not np.all(np.isfinite([slope, scatter, i1, i2])):
            raise RuntimeError("the solution overflows double precision on its way in")
        extension_growth = abs(i2 - i1) / max(i1, 1e-300)
        admissible = slope > -1.0 + 0.05 and extension_growth < 0.05
        out.append({
            "lambda": lam_i,
            "k": k,
            "admissible": bool(admissible),
            "exponent_at_zero": slope,
            "fit_scatter": scatter,
            "extension_growth": extension_growth,
            "x2dx_integral": i1,
            "closed_form_error": float(error),
        })
    return out
