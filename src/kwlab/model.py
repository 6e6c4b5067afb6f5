"""Closed-form family of model solutions on (0,inf) x R^2 x S^1.

The family is indexed by an integer m >= 0.  Writing z = z1 + i z2 for the
plane coordinate, the profile variable Theta is defined by

    sinh(Theta) = t / |z|,        x = sqrt(t^2 + |z|^2),

so Theta is invariant under the rescaling (t, z) -> (lambda t, lambda z) and
the whole solution is fixed by that rescaling (1-form coefficients scale with
weight -1, curvature coefficients with weight -2).  On the unit hemisphere
x = 1 one has t = tanh(Theta) and |z| = sech(Theta).

Fields of the integer-m solution (s = sinh, c = cosh, n = m+1):

    alpha  = -(1/2t) n s(Theta) c(n Theta) / (s(n Theta) c(Theta))
    a3     = alpha sigma3                            (dx3 component)
    phi    = a1 - i a2
           = -(1/2t) n s(Theta)/s(n Theta) (z/|z|)^m (sigma1 - i sigma2)
    A      = product connection + Aphi (z1 dz2 - z2 dz1)/|z|^2 sigma3,
             Aphi = n/2 (1 - tanh(Theta) coth(n Theta))
    B3     = n/(2x^2) tanh(Theta) coth(n Theta) (1 - D) sigma3
    E      = -n/(2x^3) coth(n Theta) (1 - D) sigma3 (z1 dz2 - z2 dz1)
             with D = n s(Theta) c(Theta) / (s(n Theta) c(n Theta))

m = 0 collapses to A = product connection, a_i = -sigma_i/(2t), B = E = 0.

The reduced first-order equations tying these together are

    grad_t phi - 2 alpha phi = 0,      (grad_1 + i grad_2) phi = 0,
    E1 = (d alpha/d z2) sigma3,        E2 = -(d alpha/d z1) sigma3,
    B3 = (d alpha/d t - |phi|^2) sigma3,

and ``verify_reduced_eqs`` checks all five by centered differences.

A point is (t, z), the solutions being x3-invariant, and every function
takes (t, z) arrays: ``fields`` (the scalar profile data) and ``evaluate``
(the sigma coefficients built from it) of any broadcastable shape, and the
checks a sample set as a float and a complex (n,) array (``sample_points``),
evaluating each stencil offset, rescaling and ray sample once over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import coeff_bracket, coeff_norm

# sigma coefficients of sigma1, sigma2, sigma3 and of E_PLUS = sigma1 - i sigma2
_SIGMA = np.eye(3)
_E_PLUS = _SIGMA[0] - 1j * _SIGMA[1]

AXIS_RADIUS = 1e-12  # below this |z| the on-axis limit branch is used
SAMPLING_AXIS_EXCLUSION = 0.05  # random samples stay outside this disk


@dataclass(frozen=True)
class ModelSolution:
    """The integer-m member of the family."""

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"m must be a non-negative integer, got {self.m}")


def profile_factors(m: int, th: np.ndarray) -> dict[str, np.ndarray]:
    """Scalar profile data at Theta = th (array valued, overflow safe).

    Returns alpha_factor (alpha = alpha_factor/(2t)), phi_factor
    (|phi| prefactor: phi = phi_factor/(2t) (z/|z|)^m e_plus), Aphi,
    b3_factor (B3 = b3_factor/x^2 sigma3) and e_factor
    (E = e_factor/x^3 sigma3 (z1 dz2 - z2 dz1)).

    All hyperbolic ratios are computed through decaying exponentials, so
    arbitrarily large m Theta is safe.
    """
    n = m + 1
    th = np.asarray(th, dtype=float)
    e2 = -np.expm1(-2.0 * th)      # 1 - exp(-2 Theta)
    e2n = -np.expm1(-2.0 * n * th)  # 1 - exp(-2 n Theta)
    p2 = 2.0 - e2                   # 1 + exp(-2 Theta)
    p2n = 2.0 - e2n                 # 1 + exp(-2 n Theta)
    alpha_factor = -n * (e2 * p2n) / (e2n * p2)
    phi_factor = -n * np.exp((1.0 - n) * th) * e2 / e2n
    tanh_th = e2 / p2
    coth_n = p2n / e2n
    e4 = -np.expm1(-4.0 * th)
    e4n = -np.expm1(-4.0 * n * th)
    d_factor = n * np.exp(2.0 * (1.0 - n) * th) * e4 / e4n
    bf = 1.0 - d_factor
    a_phi = 0.5 * n * (1.0 - tanh_th * coth_n)
    b3_factor = 0.5 * n * tanh_th * coth_n * bf
    e_factor = -0.5 * n * coth_n * bf
    return {
        "alpha_factor": alpha_factor,
        "phi_factor": phi_factor,
        "Aphi": a_phi,
        "b3_factor": b3_factor,
        "e_factor": e_factor,
    }


def fields(ms: ModelSolution, t: np.ndarray, z: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized evaluation of every scalar field at (t, z) arrays.

    Returns alpha, phi_coef (complex, phi = phi_coef * e_plus), Aphi,
    b3 (B3 = b3 sigma3), e_coef (E = e_coef sigma3 (z1 dz2 - z2 dz1)), the
    profile variable theta (sinh theta = t/|z|) and the cone radius x.
    On-axis entries (|z| < AXIS_RADIUS) get their limiting values; there
    theta is infinite.
    """
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=complex)
    if np.any(t <= 0):
        raise ValueError("need t > 0 everywhere")
    r = np.abs(z)
    x = np.hypot(t, r)
    on_axis = r < AXIS_RADIUS
    r_safe = np.where(on_axis, 1.0, r)
    th = np.arcsinh(t / r_safe)
    pf = profile_factors(ms.m, th)
    alpha = pf["alpha_factor"] / (2.0 * t)
    phase = np.where(on_axis, 1.0 if ms.m == 0 else 0.0, (z / r_safe) ** ms.m)
    phi_coef = pf["phi_factor"] / (2.0 * t) * phase
    b3 = pf["b3_factor"] / x ** 2
    e_coef = pf["e_factor"] / x ** 3
    a_phi = pf["Aphi"]
    if np.any(on_axis):
        th = np.where(on_axis, np.inf, th)
        alpha = np.where(on_axis, -(ms.m + 1) / (2.0 * t), alpha)
        b3 = np.where(on_axis, 0.0, b3)
        e_coef = np.where(on_axis, 0.0, e_coef)
        a_phi = np.where(on_axis, 0.0, a_phi)
        if ms.m == 0:
            phi_coef = np.where(on_axis, -1.0 / (2.0 * t), phi_coef)
    return {"alpha": alpha, "phi_coef": phi_coef, "Aphi": a_phi, "b3": b3,
            "e_coef": e_coef, "theta": th, "x": x}


@dataclass(frozen=True)
class ModelEval:
    """Every field of a model solution at a batch of points.

    The su(2) fields are sigma coefficients of shape (..., 3), real except
    phi, which is complex (phi = phi_coef E_PLUS, and E_PLUS = sigma1 -
    i sigma2 has coefficients (1, -i, 0)); alpha and Aphi have shape (...),
    where (...) is the broadcast shape of the (t, z) arrays given to
    ``evaluate``.  A1, A2 are the connection relative to the product
    connection (it has no dt or dx3 part).
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    phi: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    B3: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    alpha: np.ndarray
    Aphi: np.ndarray


def _col(a) -> np.ndarray:
    """a[..., None]: per-point scalars against (..., 3) coefficients."""
    return np.asarray(a)[..., None]


def evaluate(ms: ModelSolution, t, z) -> ModelEval:
    """Every field of the solution at (t, z) arrays of any (broadcastable) shape.

    This is the one place where the scalar ``fields`` become su(2) values
    (sigma coefficients); scalar t, z give (3,) vectors.  Off axis this is
    the closed form above; at |z| < AXIS_RADIUS the axis limits are used
    (phi -> 0 for m >= 1, alpha -> -(m+1)/(2t), curvature components, Aphi
    and A -> 0).
    """
    z = np.asarray(z, dtype=complex)
    f = fields(ms, t, z)
    pc = f["phi_coef"]
    r2 = np.abs(z) ** 2
    a_coef = f["Aphi"] / np.where(r2 < AXIS_RADIUS ** 2, 1.0, r2)
    e_coef = f["e_coef"]
    return ModelEval(
        a1=_col(pc.real) * _SIGMA[0] + _col(pc.imag) * _SIGMA[1],
        a2=_col(pc.real) * _SIGMA[1] - _col(pc.imag) * _SIGMA[0],
        a3=_col(f["alpha"]) * _SIGMA[2],
        phi=_col(pc) * _E_PLUS,
        A1=_col(-a_coef * z.imag) * _SIGMA[2],
        A2=_col(a_coef * z.real) * _SIGMA[2],
        B3=_col(f["b3"]) * _SIGMA[2],
        E1=_col(-e_coef * z.imag) * _SIGMA[2],
        E2=_col(e_coef * z.real) * _SIGMA[2],
        alpha=f["alpha"],
        Aphi=f["Aphi"],
    )


# Offsets of the centred-difference stencil in units of the step: the centre,
# then t +- h, x1 +- h, x2 +- h.
_STENCIL_T = np.array([0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
_STENCIL_Z = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 1j, -1j])


def _stencil(t, z, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(step, t, z): the step h * min(t, |z|) at each point, and the (t, z) of
    the stencil around it along a new leading axis of 7."""
    step = h * np.minimum(t, np.abs(z))
    if np.any(np.abs(z) < 10 * step):
        raise ValueError("step too large relative to distance from the axis")
    return step, t + np.multiply.outer(_STENCIL_T, step), z + np.multiply.outer(_STENCIL_Z, step)


def _grad(f: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d/dt, d/dx1, d/dx2) by centred differences of stencil values f."""
    h = np.asarray(h)
    step = 2.0 * h.reshape(h.shape + (1,) * (f.ndim - 1 - h.ndim))
    return tuple((f[i] - f[i + 1]) / step for i in (1, 3, 5))


def verify_reduced_eqs(ms: ModelSolution, t: np.ndarray, z: np.ndarray,
                       h: float) -> dict[str, float]:
    """Worst residual norm of each of the five reduced equations over the
    sample points (t, z), a float and a complex (n,) array.

    Every stencil offset is evaluated once over the whole set.  h is the
    relative step factor: the stencil step is h * min(t, |z|) at each point,
    so the differencing error stays O(h^2) uniformly over the sample box
    instead of degrading near the axis or the boundary.

    Keys: 'dt_phi' for grad_t phi - 2 alpha phi, 'dbar_phi' for
    (grad_1 + i grad_2) phi, 'E1', 'E2' for the curvature components against
    alpha-derivatives, 'B3' for B3 - (d alpha/dt - |phi|^2) sigma3.
    """
    step, ts, zs = _stencil(t, z, h)
    ev = evaluate(ms, ts, zs)
    phi, alpha = ev.phi[0], ev.alpha[0]
    dphi_dt, dphi_d1, dphi_d2 = _grad(ev.phi, step)
    dadt, dad1, dad2 = _grad(ev.alpha, step)
    g1 = dphi_d1 + coeff_bracket(ev.A1[0], phi)
    g2 = dphi_d2 + coeff_bracket(ev.A2[0], phi)
    phi_norm_sq = coeff_norm(phi) ** 2
    res = {
        "dt_phi": coeff_norm(dphi_dt - 2.0 * _col(alpha) * phi),
        "dbar_phi": coeff_norm(g1 + 1j * g2),
        "E1": coeff_norm(ev.E1[0] - _col(dad2) * _SIGMA[2]),
        "E2": coeff_norm(ev.E2[0] + _col(dad1) * _SIGMA[2]),
        "B3": coeff_norm(ev.B3[0] - _col(dadt - phi_norm_sq) * _SIGMA[2]),
    }
    return {k: float(np.max(v)) for k, v in res.items()}


def sample_points(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n random off-axis points as (t, z), a float and a complex (n,) array:
    t in [0.1, 3], z uniform on the square [-3, 3]^2 outside the disk
    |z| < SAMPLING_AXIS_EXCLUSION.  Each candidate draws t, Re z and Im z,
    and each accepted one an unread x3 on [0, 2 pi), which keeps every
    seed's points those it has always drawn."""
    ts, zs = [], []
    while len(ts) < n:
        t = rng.uniform(0.1, 3.0)
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if abs(z) < SAMPLING_AXIS_EXCLUSION:
            continue
        rng.uniform(0, 2 * math.pi)  # x3: the solutions do not depend on it
        ts.append(t)
        zs.append(z)
    return np.array(ts, dtype=float), np.array(zs, dtype=complex)


def verify_properties(ms: ModelSolution, t: np.ndarray, z: np.ndarray) -> dict:
    """Property report over the sample points (t, z), (n,) arrays.

    Measurements only, for the model suite's verdicts: the range of 2t*alpha
    (in [-(m+1), -1]), min d alpha/dt (centred, step 1e-5; positive), the
    range of |phi| sqrt(2) t (at most 1, identically 1 only at m = 0), the
    sup of |B3|,|E1|,|E2| x^3/t, and the rescaling error at lambda in
    {2, 1/3}.  Each offset and rescaling is evaluated once over all samples.
    """
    ev = evaluate(ms, t, z)
    alpha_scaled = 2.0 * t * ev.alpha
    h = 1e-5
    dalpha_dt = (evaluate(ms, t + h, z).alpha - evaluate(ms, t - h, z).alpha) / (2 * h)
    phi_bound = coeff_norm(ev.phi) * math.sqrt(2.0) * t
    curvature_c = (np.maximum(coeff_norm(ev.B3),
                              np.maximum(coeff_norm(ev.E1), coeff_norm(ev.E2)))
                   * (np.hypot(t, np.abs(z)) ** 3 / t))
    # scaling weight of each field: 1-form coefficients 1, curvature 2, Aphi 0
    weights = {"a1": 1, "a2": 1, "a3": 1, "Aphi": 0, "B3": 2, "E1": 2, "E2": 2}
    scale_err = 0.0
    for lam in (2.0, 1.0 / 3.0):
        evq = evaluate(ms, lam * t, lam * z)
        for name, w in weights.items():
            err = np.abs(lam ** w * getattr(evq, name) - getattr(ev, name))
            scale_err = max(scale_err, float(np.max(err)))
    return {"m": ms.m, "n_samples": len(t),
            "alpha_scaled_min": float(alpha_scaled.min()),
            "alpha_scaled_max": float(alpha_scaled.max()),
            "dalpha_dt_min": float(dalpha_dt.min()),
            "phi_bound_min": float(phi_bound.min()),
            "phi_bound_max": float(phi_bound.max()),
            "curvature_x3_over_t_sup": float(curvature_c.max()),
            "scaling_equivariance_err": scale_err}


def _section(ms: ModelSolution, p_degree: int, ev: ModelEval, z) -> np.ndarray:
    """sigma_minus from the fields ev evaluated at points with coordinate z."""
    if p_degree < ms.m:
        raise ValueError(
            f"pairing degree {p_degree} < m = {ms.m}: the section has a pole on the axis"
        )
    phi_star = ev.a1 + 1j * ev.a2
    pairing = np.sum(ev.phi * phi_star, axis=-1)  # -1/2 tr(phi phi^*) = 2 c(t,Theta)^2 > 0
    return _col(np.asarray(z) ** p_degree) * phi_star / _col(pairing)


def case4_section(ms: ModelSolution, p_degree: int, t, z) -> np.ndarray:
    """The L^- valued section sigma_minus with trace pairing <phi sigma_minus> = z^p.

    sigma_minus = z^p phi^* / <phi phi^*> where phi^* = a1 + i a2, at (t, z)
    arrays of any shape (sigma coefficients, shape (..., 3)); requires p_degree >= m,
    otherwise sigma_minus has a pole on the axis.
    """
    return _section(ms, p_degree, evaluate(ms, t, z), z)


def case4_solution(ms: ModelSolution, p_degree: int, t: float, z: complex, h: float) -> dict:
    """Finite-difference residuals of the two decoupled first-order equations
    for sigma_minus at the point (t, z), plus the homogeneity exponent of
    |sigma_minus| along the ray through it.

    The equations are grad_t sigma + 2 alpha sigma = 0 and
    (grad_1 + i grad_2) sigma = 0; each residual is divided by the sum of the
    norms of its two terms, so it means the same at any scale of the fields.
    The expected ray exponent is p_degree + 1.
    The stencil and the ray samples are each evaluated in one batch.
    """
    if ms.m < 1:
        raise ValueError("the construction is stated for m >= 1")
    step, ts, zs = _stencil(t, z, h)
    ev = evaluate(ms, ts, zs)
    sig = _section(ms, p_degree, ev, zs)
    dt, d1, d2 = _grad(sig, step)
    g1 = d1 + coeff_bracket(ev.A1[0], sig[0])
    g2 = d2 + coeff_bracket(ev.A2[0], sig[0])
    alpha_sig = 2.0 * ev.alpha[0] * sig[0]
    res_t = coeff_norm(dt + alpha_sig) / (coeff_norm(dt) + coeff_norm(alpha_sig))
    res_z = coeff_norm(g1 + 1j * g2) / (coeff_norm(g1) + coeff_norm(g2))

    # exponent of |sigma_minus| ~ x^(p+1) along the ray through (t, z)
    lams = np.geomspace(0.5, 2.0, 9)
    vals = coeff_norm(case4_section(ms, p_degree, lams * t, lams * z))
    xs = np.hypot(lams * t, np.abs(lams * z))
    slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
    return {"res_t": float(res_t), "res_dbar": float(res_z), "ray_exponent": float(slope)}
