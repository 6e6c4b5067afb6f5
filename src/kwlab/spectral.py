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

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# scipy is imported inside the solvers that use it, so that importing kwlab
# (and every command that runs no spectral solve) loads numpy alone


# ---------------------------------------------------------------------------
# Hardy-type ratios


def _trapz(y, x):
    return float(np.trapezoid(y, x))


def hardy_halfline_ratio(f: Callable, df: Callable, grid=None) -> float:
    """int f^2/t^2 dt over int f'^2 dt on (0, inf); the sharp constant is 4."""
    if grid is None:
        grid = np.geomspace(1e-10, 60.0, 20000)
    fv = f(grid)
    dv = df(grid)
    return _trapz(fv * fv / grid ** 2, grid) / _trapz(dv * dv, grid)


def hardy_near_extremal_sweep() -> dict:
    """Ratios for f = t^(1/2+eps) e^{-t}; they approach 4 from below.

    The mass integral behaves like Gamma(2 eps) ~ 1/(2 eps), so the grid has
    to reach far below machine-scale t to capture it; the integrand powers
    stay well inside double range.
    """
    grid = np.geomspace(1e-90, 90.0, 40000)
    out = {}
    for eps in (0.2, 0.1, 0.05, 0.02, 0.01):
        p = 0.5 + eps

        def f(t, p=p):
            return t ** p * np.exp(-t)

        def df(t, p=p):
            return (p * t ** (p - 1) - t ** p) * np.exp(-t)

        out[eps] = hardy_halfline_ratio(f, df, grid=grid)
    return out


def hardy_cone_ratio(a: float = 1.0, s: float = 1.0) -> float:
    """int psi^2/x^2 over int |grad psi|^2 for psi = t^a exp(-x^2/(2 s^2))
    on the half-space t > 0 (x3-invariant); the constant is 4/9.

    2D trapezoid quadrature in (t, r) with the measure 2 pi r dr dt, on the
    same 600 nodes up to 8 s along each axis.  psi = t^a e^{-t^2/2s^2} .
    e^{-r^2/2s^2} and both its gradient terms are products of 1D factors, so
    the energy is a sum of products of 1D trapezoids; the one factor that does
    not separate is 1/x^2 = 1/(t^2 + r^2), and the mass is one weighted
    product u . K . v with K = 1/(t_i^2 + r_j^2), the only 2D array.
    """
    x = np.linspace(1e-6, 8.0 * s, 600)  # the t nodes and the r nodes
    dx = np.diff(x)
    w = np.zeros_like(x)
    w[:-1] += dx / 2
    w[1:] += dx / 2
    gauss = np.exp(-x * x / (2 * s * s))
    # the t factors of psi^2 and (d psi/dt)^2, and the r factors of psi^2 and
    # (d psi/dr)^2 with the measure r dr (2 pi cancels in the ratio)
    mass_t = w * (x ** a * gauss) ** 2
    grad_t = w * ((a * x ** (a - 1) - x ** (a + 1) / s ** 2) * gauss) ** 2
    mass_r = w * x * gauss * gauss
    grad_r = w * x * (x / s ** 2 * gauss) ** 2
    kernel = np.add.outer(x * x, x * x)
    np.divide(1.0, kernel, out=kernel)  # K = 1/x^2, in place
    num = mass_t @ kernel @ mass_r
    den = grad_t.sum() * mass_r.sum() + mass_t.sum() * grad_r.sum()
    return float(num / den)


def hardy_profile_ratio(kappa: float = 1.0) -> float:
    """int f^2/sinh^2 over int f'^2/cosh^2 on (0, inf) for f = tanh^kappa;
    bounded by 4 for bounded f vanishing at 0."""
    th = np.geomspace(1e-8, 40.0, 40000)
    f = np.tanh(th) ** kappa
    df = kappa * np.tanh(th) ** (kappa - 1) / np.cosh(th) ** 2
    num = _trapz(f * f / np.sinh(th) ** 2, th)
    den = _trapz(df * df / np.cosh(th) ** 2, th)
    return num / den


def hardy_suite() -> dict:
    """Supremum ratios for the three weighted inequalities, with their
    constants; the verdicts are ``suites.hardy_checks``."""
    base = hardy_halfline_ratio(lambda t: t * np.exp(-t),
                                lambda t: np.exp(-t) * (1 - t))
    sweep = hardy_near_extremal_sweep()
    cone = max(hardy_cone_ratio(a, s) for a in (1.0, 2.0) for s in (0.7, 1.0, 1.6))
    profile = max(hardy_profile_ratio(k) for k in (1.0, 2.0, 4.0))
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
    from scipy.linalg import solve_banded

    hh = (THETA_MAX - THETA_MIN) / n_mesh
    th = THETA_MIN + hh * np.arange(1, n_mesh + 1)
    sech2 = 1.0 / np.cosh(th) ** 2
    wv = prob.w_values(th)
    diag_k = np.full(n_mesh, 2.0 / hh)
    diag_k[-1] = 1.0 / hh  # natural condition at the pole end
    diag_k += (prob.angular_mode ** 2 + wv * sech2) * hh
    off_k = np.full(n_mesh - 1, -1.0 / hh)
    mass = sech2 * hh
    ab = np.zeros((3, n_mesh))
    ab[0, 1:] = off_k
    ab[1, :] = diag_k
    ab[2, :-1] = off_k
    v = np.tanh(th)
    mu_prev = np.inf
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
    """Round-measure potentials of the three decoupled sectors.

    'b3ct' keeps W = 0: that sector only needs the kinetic lower bound 2
    (its matrix potential is nonnegative), so the commutator term is
    deliberately dropped as a lower-bound substitution.
    """
    n = m + 1

    def cosh_over_sinh_n(th):
        # cosh(th) / sinh(n th), with no factor that overflows at large n th
        return (np.exp((1 - n) * th) + np.exp(-(1 + n) * th)) / -np.expm1(-2 * n * th)

    if case == "b3ct":
        return None
    if case == "case2":  # 2 n^2 cosh^2(th) / sinh^2(n th)
        return lambda th: 2.0 * n ** 2 * cosh_over_sinh_n(th) ** 2
    if case == "case3":  # n^2 (cosh^2(n th) + cosh^2(th)) / sinh^2(n th)
        return lambda th: n ** 2 * (1.0 / np.tanh(n * th) ** 2 + cosh_over_sinh_n(th) ** 2)
    raise ValueError(f"unknown case {case!r}")


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
_SQRT_MAX = math.sqrt(sys.float_info.max)  # the largest |x| whose square is finite


@dataclass
class RadialODEState:
    """A radial solution sampled as (a, b) on x_grid; sol is the
    integration of (f, g) in s = ln x, with its dense output."""
    lam: float
    k: float
    x_grid: np.ndarray
    a: np.ndarray
    b: np.ndarray
    identity_residual: float = 0.0
    sol: object = field(default=None, repr=False)


def _block_rhs(p: np.ndarray, k: float):
    # d(f, g)/ds = (-p f - k x g, p g - k x f) for every p at once; y holds
    # the f of each p, then the g of each p, and swap exchanges the halves
    diag = np.concatenate([-p, p])
    swap = np.roll(np.arange(2 * p.size), p.size)

    def rhs(s, y):
        return diag * y - k * math.exp(s) * y[swap]

    return rhs


def _block_solve(p: np.ndarray, k: float, x_span, y0):
    """The one radial integrator: the blocks of every p in the array p,
    stacked, from x_span[0] to x_span[1] in s = ln x, starting from
    y0 = (f of each p, g of each p).  The result's dense output is in s.

    Every caller squares the state, so RuntimeError is raised for a start
    state that is not finite, passes sqrt(max double) (beyond which its
    square overflows) or underflowed to all zeros, and at the first step
    where some |f| or |g| passes sqrt(max double), where the integration
    stops."""
    from scipy.integrate import solve_ivp

    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.abs(y0) <= _SQRT_MAX):
        raise RuntimeError("the start state's squares overflow double precision")
    if not np.any(y0):
        raise RuntimeError("the start state underflows to zero")

    def leaves_range(s, y):
        return _SQRT_MAX - np.max(np.abs(y))

    leaves_range.terminal, leaves_range.direction = True, -1
    sol = solve_ivp(_block_rhs(p, k), (math.log(x_span[0]), math.log(x_span[1])), y0,
                    method="DOP853", rtol=_RADIAL_RTOL, atol=1e-300, dense_output=True,
                    events=leaves_range)
    if sol.status == 1:
        raise RuntimeError("the solution's squares overflow double precision "
                           f"from x = {math.exp(sol.t_events[0][0]):.3g} on")
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    return sol


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
        return sol.sol(np.log(x)) / x

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

    # the fit points and both integration grids, read in one dense-output call
    xs = np.geomspace(x_min, 100 * x_min, 60)
    grid1 = np.geomspace(x_min, x_max, 4000)
    grid2 = np.geomspace(x_min / 4.0, x_max, 4000)
    x_all = np.concatenate([xs, grid1, grid2])
    fg = sol.sol(np.log(x_all)).reshape(2, lam.size, -1)
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
