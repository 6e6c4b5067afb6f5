"""Ascending gradient flow of the cs functional on the flat 3-torus.

The flow is d/dt (A, a) = (curl_A a, B_A - star(a wedge a)); along it

    d/dt cs = int (|E_A|^2 + |grad_t a|^2)
            = int (|B_A - star(a wedge a)|^2 + |d_A a|^2),

so cs is non-decreasing, and the two right-hand sides -- one built from the
spatial fields, one from the actual time derivatives -- must agree.  Both are
monitored along every run, together with the constraint scalar d_A * a
(watched, never projected) and sup |a|.

Integrator: classical RK4 at fixed dt with the stability bound dt <= 0.2 h
asserted up front (h = grid spacing); no adaptivity, for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .reporting import csv_text, finite_or_none
from .torus import TorusField, b_field, cs_functional, div_cov, dot, gradient

CFL_FACTOR = 0.2


class CFLError(ValueError):
    def __init__(self, dt, bound):
        self.suggested_dt = 0.5 * bound
        super().__init__(
            f"dt = {dt:g} exceeds the stability bound {bound:g}; "
            f"suggested dt = {self.suggested_dt:g}"
        )


@dataclass
class FlowConfig:
    dt: float
    steps: int
    monotone_tol: float = 1e-10  # allowed per-step decrease of cs


@dataclass
class FlowTrace:
    times: np.ndarray
    cs: np.ndarray
    grad_norm_sq: np.ndarray
    constraint_drift: np.ndarray
    sup_a: np.ndarray
    energy_identity_relerr: np.ndarray
    two_forms_relerr: np.ndarray
    monotone: bool = True
    worst_decrease: float = 0.0
    meta: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """Scalars of the run; those that are not finite (a diverged run) are
        None, so the summary is strict JSON."""
        inner = slice(1, -1) if len(self.times) > 2 else slice(None)
        out = {
            "steps": int(len(self.times) - 1),
            "cs_initial": finite_or_none(self.cs[0]),
            "cs_final": finite_or_none(self.cs[-1]),
            "monotone": bool(self.monotone),
            "worst_decrease": finite_or_none(self.worst_decrease),
            "energy_identity_max_relerr": finite_or_none(
                np.max(self.energy_identity_relerr[inner]) if len(self.times) > 2 else 0.0
            ),
            "two_forms_max_relerr": finite_or_none(
                np.max(self.two_forms_relerr[inner]) if len(self.times) > 2 else 0.0
            ),
            "constraint_drift_max": finite_or_none(np.max(self.constraint_drift)),
            "sup_a_max": finite_or_none(np.max(self.sup_a)),
        }
        out.update((k, self.meta[k]) for k in ("status", "blowup_step") if k in self.meta)
        return out

    def to_csv(self) -> str:
        """The trace as CSV text, one row per recorded step."""
        header = ["step", "time", "cs", "grad_norm_sq",
                  "energy_identity_relerr", "constraint_drift", "sup_a"]
        return csv_text([header] + [
            [i, f"{self.times[i]:.10g}", f"{self.cs[i]:.12g}", f"{self.grad_norm_sq[i]:.12g}",
             f"{self.energy_identity_relerr[i]:.6g}", f"{self.constraint_drift[i]:.6g}",
             f"{self.sup_a[i]:.6g}"]
            for i in range(len(self.times))])


def _rhs(F: TorusField, A, a):
    """The flow's right-hand side at (A, a) on F's grid."""
    return gradient(TorusField(F.N, F.L, A, a, F.scheme))


def run_flow(F0: TorusField, config: FlowConfig) -> FlowTrace:
    """Integrate the ascending flow; returns the monitored trace.

    The energy-identity column at step n compares the centered difference of
    cs with int(|curl_A a|^2 + |da/dt|^2), da/dt also centered; the two-forms
    column compares that with the gradient-norm form (both normalized by
    max(1, value)).  Endpoints carry zeros for those two columns.

    Recording a state evaluates the gradient there, which is the k1 stage of
    the next RK4 step; that step takes it from the record instead of calling
    _rhs again.  The run stops at the first recorded state whose cs or
    gradient norm is not finite: meta["status"] is then "diverged" and
    meta["blowup_step"] that step (the trace ends with it), else "completed".

    When the sigma1 and sigma2 coefficients of A and a are all zero
    (meta["abelian"] is True) the run integrates the sigma3 coefficient alone
    and reports the same trace bit for bit.  Derivatives act on each
    coefficient separately, and every product in the bracket of two
    sigma3-valued fields has a zero factor, so every RK4 stage keeps the
    sigma1 and sigma2 coefficients at exactly 0, and every monitor only adds
    exact zeros from them.
    """
    dt = config.dt
    bound = CFL_FACTOR * F0.h
    if dt > bound:
        raise CFLError(dt, bound)
    A, a = F0.A, F0.a
    abelian = not (np.any(A[:, :-1]) or np.any(a[:, :-1]))
    if abelian:
        A, a = A[:, -1:], a[:, -1:]
    A, a = A.copy(), a.copy()
    n_rec = config.steps + 1
    times = np.zeros(n_rec)
    cs = np.zeros(n_rec)
    gns = np.zeros(n_rec)
    drift = np.zeros(n_rec)
    sup_a = np.zeros(n_rec)
    e_curl = np.zeros(n_rec)   # int |curl_A a|^2
    ei = np.zeros(n_rec)
    tf = np.zeros(n_rec)
    a_hist: list = []  # rolling window of the last three a snapshots

    F = TorusField(F0.N, F0.L, A, a, F0.scheme)

    def record(i):
        """Monitor state i; returns the gradient (curl_A a, B - star(a wedge a))."""
        work = TorusField(F.N, F.L, A, a, F.scheme)
        times[i] = i * dt
        B = b_field(work)
        cs[i] = cs_functional(work, B)
        gA, gb = gradient(work, B)
        e_curl[i] = work.integrate(dot(gA, gA).sum(axis=0))
        gns[i] = e_curl[i] + work.integrate(dot(gb, gb).sum(axis=0))
        dva = div_cov(work, a)
        drift[i] = math.sqrt(work.integrate(dot(dva, dva)))
        sup_a[i] = float(np.sqrt(np.sum(a * a, axis=(0, 1)).max()))
        a_hist.append(a.copy())
        if len(a_hist) > 3:
            a_hist.pop(0)
        if len(a_hist) == 3:
            # centered identities at step i-1
            da = (a_hist[2] - a_hist[0]) / (2 * dt)
            da_int = work.integrate(dot(da, da).sum(axis=0))
            rhs22 = e_curl[i - 1] + da_int
            dcs = (cs[i] - cs[i - 2]) / (2 * dt)
            ei[i - 1] = abs(dcs - rhs22) / max(1.0, abs(rhs22))
            tf[i - 1] = abs(rhs22 - gns[i - 1]) / max(1.0, abs(gns[i - 1]))
        return gA, gb

    def finite(i):
        return math.isfinite(cs[i]) and math.isfinite(gns[i])

    meta = {"N": F0.N, "L": F0.L, "dt": dt, "scheme": F0.scheme, "abelian": abelian,
            "status": "completed"}
    # a diverging run overflows on its way to the state that stops it; the
    # status below reports that instead of numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        k1A, k1a = record(0)
        last = 0
        while last < config.steps and finite(last):
            k2A, k2a = _rhs(F, A + 0.5 * dt * k1A, a + 0.5 * dt * k1a)
            k3A, k3a = _rhs(F, A + 0.5 * dt * k2A, a + 0.5 * dt * k2a)
            k4A, k4a = _rhs(F, A + dt * k3A, a + dt * k3a)
            A = A + dt / 6.0 * (k1A + 2 * k2A + 2 * k3A + k4A)
            a = a + dt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
            last += 1
            k1A, k1a = record(last)
    if not finite(last):
        meta.update(status="diverged", blowup_step=last)
    keep = slice(0, last + 1)

    trace = FlowTrace(
        times=times[keep], cs=cs[keep], grad_norm_sq=gns[keep],
        constraint_drift=drift[keep], sup_a=sup_a[keep],
        energy_identity_relerr=ei[keep], two_forms_relerr=tf[keep], meta=meta,
    )
    dcs_steps = np.diff(trace.cs)
    trace.worst_decrease = float(-dcs_steps.min(initial=0.0))
    trace.monotone = bool(np.all(dcs_steps >= -config.monotone_tol))
    return trace


def lojasiewicz_fit(trace: FlowTrace) -> dict:
    """Fit the tail of cs against exponential and power approach to a limit.

    Works on the positive increments of cs, which avoids estimating the
    limit value first: an exponential approach C e^{-rt} makes log(dcs)
    linear in t, a power approach C t^{-q} makes it linear in log t with
    slope -(q+1).  The better log-linear fit decides the model; q maps to
    the decay-law parameter mu through q = 1/(1 - 2 mu), and an exponential
    tail is the mu = 1/2 case.  The limit is then extrapolated with the
    chosen model and reported.  A diverged run is reported as such, unfitted.
    """
    if trace.meta.get("status") == "diverged":
        return {"status": "diverged", "model": None, "mu_estimate": None}
    cs = trace.cs
    t = trace.times
    n = len(cs)
    if n < 16:
        raise ValueError("trace too short to fit")
    scale = max(abs(cs[-1] - cs[0]), np.max(np.abs(cs)), 1e-300)
    if np.max(trace.grad_norm_sq) < 1e-24 or abs(cs[-1] - cs[n // 2]) < 1e-15 * scale:
        return {"status": "already_converged", "model": None, "mu_estimate": None}
    g = trace.grad_norm_sq
    if g[-1] > 1.2 * g[n // 2] + 1e-18:
        return {"status": "not_converged", "model": None, "mu_estimate": None}
    tail = slice(n // 2, n - 1)
    dcs = np.diff(cs)[tail]
    tm = 0.5 * (t[:-1] + t[1:])[tail]
    good = dcs > 1e-14 * scale
    if np.count_nonzero(good) < 8:
        return {"status": "already_converged", "model": None, "mu_estimate": None}
    ld = np.log(dcs[good])
    tm = tm[good]

    def rsq(x, y):
        c = np.polyfit(x, y, 1)
        resid = y - np.polyval(c, x)
        sst = np.sum((y - y.mean()) ** 2)
        return c, 1.0 - np.sum(resid ** 2) / max(sst, 1e-300)

    ce, r2e = rsq(tm, ld)
    cp, r2p = rsq(np.log(tm), ld)
    dt_step = t[1] - t[0]
    if r2e >= r2p:
        rate = float(-ce[0])
        cs_inf = cs[-1]
        if rate > 0:
            cs_inf = cs[-1] + (cs[-1] - cs[-2]) * math.exp(-rate * dt_step / 2) / max(
                1.0 - math.exp(-rate * dt_step), 1e-300)
        return {"status": "ok", "model": "exponential", "rate": rate,
                "mu_estimate": 0.5, "r2_exponential": float(r2e),
                "r2_power": float(r2p), "cs_inf": float(cs_inf)}
    q = float(-cp[0] - 1.0)
    mu = 0.5 * (1.0 - 1.0 / q) if q > 0 else None
    cs_inf = cs[-1]
    if q > 0:
        # integrate the fitted increment density beyond the trace end
        cdens = math.exp(cp[1]) / dt_step
        cs_inf = cs[-1] + (cdens / q) * t[-1] ** (-q)
    return {"status": "ok", "model": "power", "exponent": q,
            "mu_estimate": mu, "r2_exponential": float(r2e),
            "r2_power": float(r2p), "cs_inf": float(cs_inf)}
