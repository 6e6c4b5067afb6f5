"""Ascending gradient flow of the cs functional on the flat 3-torus.

The flow is d/dt (A, a) = (curl_A a, B_A - star(a wedge a)); along it

    d/dt cs = int (|E_A|^2 + |grad_t a|^2)
            = int (|B_A - star(a wedge a)|^2 + |d_A a|^2),

so cs is non-decreasing, and the two right-hand sides -- one built from the
spatial fields, one from the actual time derivatives -- must agree.  Both are
monitored along every run, together with the constraint scalar d_A * a
(watched, never projected) and sup |a|; the identity errors are relative to
the size of what they compare.  The verdicts on a trace (cs monotone, both
identities within their bound) are suites.flow_checks.

The state is the complex connection Z = A + i a.  Its curvature F_Z holds
the whole gradient (torus.curvature: Re F_Z = B - star(a wedge a),
Im F_Z = curl_A a), so the flow is dZ/dt = i conj(F_Z), one curvature per
RK4 stage, and each recorded state's monitors reduce that same F_Z.  Each
monitor density (<a, Re F_Z>, |F_Z|^2, |d_A * a|^2, |a|^2 and the ring's
|da/dt|^2) is one np.einsum pass over the form and coefficient axes, with no
full-size temporary.  At each point it sums over form and then coefficient,
in the order np.sum of the product adds them; TorusField.integrate then
sums it over the grid.

Integrator: classical RK4 at fixed dt with the stability bound dt <= 0.2 h
asserted up front (h = grid spacing); no adaptivity, for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .reporting import csv_text, finite_or_none
from .torus import FORM_COEFF, TorusField, complex_connection, cs_functional, curvature, div_cov

CFL_FACTOR = 0.2
# the largest |residual| of lojasiewicz_fit's line that still fits one law:
# the Nahm-pole flow (N = 6, dt = 0.05 h) reads 5e-6 to 5e-4 over 99 to 300
# steps and 1.5 at 400, once its tail has left the Nahm sector
FIT_SCATTER_TOL = 1e-2


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


@dataclass
class FlowTrace:
    times: np.ndarray
    cs: np.ndarray
    grad_norm_sq: np.ndarray
    constraint_drift: np.ndarray
    sup_a: np.ndarray
    energy_identity_relerr: np.ndarray
    two_forms_relerr: np.ndarray
    meta: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """Scalars of the run; those that are not finite (a diverged run) are
        None, so the summary is strict JSON."""
        out = {
            "steps": int(len(self.times) - 1),
            "cs_initial": finite_or_none(self.cs[0]),
            "cs_final": finite_or_none(self.cs[-1]),
            "energy_identity_max_relerr": finite_or_none(np.max(self.energy_identity_relerr)),
            "two_forms_max_relerr": finite_or_none(np.max(self.two_forms_relerr)),
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


def _rel_gap(x, y):
    """|x - y| / (|x| + |y|), 0 where both are 0."""
    s = abs(x) + abs(y)
    return 0.0 if s == 0 else abs(x - y) / s


def _advance(Z, FZ, h, out):
    """Z + h i conj(F_Z), a step of length h along dZ/dt = i conj(F_Z),
    written to out (an array of Z's shape other than Z).

    Each part of the product with i h has one exactly zero term, so the
    real part is A + h Im F_Z and the imaginary part a + h Re F_Z, rounded
    as the real form (A, a) + h (dA/dt, da/dt) rounds them."""
    np.conjugate(FZ, out=out)
    out *= 1j * h
    out += Z
    return out


def run_flow(F0: TorusField, config: FlowConfig) -> FlowTrace:
    """Integrate the ascending flow; returns the monitored trace.

    The energy-identity column at step n compares the 5-point centred
    difference of cs with rate = int(|curl_A a|^2 + |da/dt|^2) (da/dt from a
    ring of the last five a states), the two-forms column rate with
    |grad|^2, each relative to the sum of the two, so at any amplitude; the
    first and last two steps carry zeros.

    The run carries Z = A + i a and evaluates torus.curvature once per RK4
    stage.  Recording a state evaluates the curvature there, which is the k1
    stage of the next RK4 step; that step takes it from the record instead
    of evaluating it again.  The run stops at the first recorded state whose
    cs or gradient norm is not finite: meta["status"] is then "diverged" and
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
    F = F0
    if abelian:
        F = TorusField(F0.N, F0.L, A[:, -1:], a[:, -1:], F0.scheme)
    Z = complex_connection(F)
    n_rec = config.steps + 1
    times = np.zeros(n_rec)
    cs = np.zeros(n_rec)
    gns = np.zeros(n_rec)
    drift = np.zeros(n_rec)
    sup_a = np.zeros(n_rec)
    e_curl = np.zeros(n_rec)   # int |curl_A a|^2
    ei = np.zeros(n_rec)
    tf = np.zeros(n_rec)
    ring = np.empty((5,) + Z.shape)  # the a of state i is in ring[i % 5]

    def record(i, FZ):
        """Monitor state i; its curvature, the next step's k1, goes to FZ."""
        a = ring[i % 5]
        np.copyto(a, Z.imag)
        work = TorusField(F.N, F.L, Z.real, a, F.scheme)
        curvature(work, Z, FZ)
        times[i] = i * dt
        cs[i] = cs_functional(work, FZ)
        # |Re F_Z|^2 and |Im F_Z|^2 side by side, summed over form and coefficient
        fz = FZ.view(float)
        sq = np.einsum(FORM_COEFF, fz, fz)
        e_curl[i] = work.integrate(sq[..., 1::2])
        gns[i] = e_curl[i] + work.integrate(sq[..., ::2])
        dva = div_cov(work, a)
        drift[i] = math.sqrt(work.integrate(np.einsum("c...,c...->...", dva, dva)))
        sup_a[i] = float(np.sqrt(np.einsum(FORM_COEFF, a, a).max()))
        if i >= 4:
            # step n = i - 2: f' = ((f[n-2] - f[n+2]) / 8 + f[n+1] - f[n-1]) 2 / (3 dt),
            # the bracket for a formed in place in the slot of state n - 2, which
            # no later identity reads and the next record overwrites
            n = i - 2
            d = ring[(n - 2) % 5]
            d -= a
            d /= 8.0
            d += ring[(n + 1) % 5]
            d -= ring[(n - 1) % 5]
            scale = 2.0 / (3.0 * dt)
            # over form for each coefficient, then over coefficient: not
            # FORM_COEFF's rounding order, but the one this rate is defined by
            dd = np.einsum("fc...,fc...->c...", d, d).sum(axis=0)
            rate = e_curl[n] + scale ** 2 * work.integrate(dd)
            dcs = ((cs[n - 2] - cs[n + 2]) / 8.0 + cs[n + 1] - cs[n - 1]) * scale
            ei[n] = _rel_gap(dcs, rate)
            tf[n] = _rel_gap(rate, gns[n])

    def finite(i):
        return math.isfinite(cs[i]) and math.isfinite(gns[i])

    meta = {"N": F0.N, "L": F0.L, "dt": dt, "scheme": F0.scheme, "abelian": abelian,
            "status": "completed"}
    # a diverging run overflows on its way to the state that stops it; the
    # status below reports that instead of numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # RK4 in three arrays, reused at every step: ksum starts as k1, the
        # record's curvature, and sums k1 + 2 k2 + 2 k3 + k4 in that order
        ksum, k, stage = (np.empty_like(Z) for _ in range(3))
        record(0, ksum)
        last = 0
        while last < config.steps and finite(last):
            curvature(F, _advance(Z, ksum, 0.5 * dt, stage), k)  # k2
            _advance(Z, k, 0.5 * dt, stage)
            k *= 2
            ksum += k
            curvature(F, stage, k)  # k3
            _advance(Z, k, dt, stage)
            k *= 2
            ksum += k
            ksum += curvature(F, stage, k)  # k4
            Z, stage = _advance(Z, ksum, dt / 6.0, stage), Z
            last += 1
            record(last, ksum)
    if not finite(last):
        meta.update(status="diverged", blowup_step=last)
    keep = slice(0, last + 1)

    return FlowTrace(
        times=times[keep], cs=cs[keep], grad_norm_sq=gns[keep],
        constraint_drift=drift[keep], sup_a=sup_a[keep],
        energy_identity_relerr=ei[keep], two_forms_relerr=tf[keep], meta=meta,
    )


def lojasiewicz_fit(trace: FlowTrace) -> dict:
    """The Lojasiewicz exponent mu and the decay rate of the trace's tail.

    With g = |grad cs|^2 and D = cs_inf - cs, the Lojasiewicz relation
    g ~ c D^theta, theta = 2 (1 - mu), and dD/dt = -g make
    r = -d log g/dt = theta g / D proportional to g^(1 - 1/theta).  r is the
    centred difference of log g (exact for an exponential); over the second
    half of the trace one least-squares line of log r against log g has
    slope s = 1 - 1/theta, so mu = 1 - 1/(2 (1 - s)): 1/2 for an exponential
    approach, 1/3 on the Nahm pole.  Neither cs_inf nor the time origin
    enters, so the fit is invariant under time shifts and under rescaling
    g.  "rate" is the median of r over the tail.  "scatter" is the largest
    |residual| of the line; above FIT_SCATTER_TOL the tail does not follow
    one power law (it has left the sector the law describes) and the status
    is "scattered", with the fitted numbers reported as they came out.
    Fewer than 8 tail points with finite r > 0 give status "no_decay"; a
    diverged run is reported as such, unfitted.
    """
    unfitted = {"mu_estimate": None, "rate": None, "scatter": None}
    if trace.meta.get("status") == "diverged":
        return {"status": "diverged", **unfitted}
    n = len(trace.times)
    if n < 16:
        raise ValueError("trace too short to fit")
    t = trace.times
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.log(trace.grad_norm_sq)
        r = (lg[:-2] - lg[2:]) / (t[2:] - t[:-2])  # at t[1:-1]
    lg, r = lg[n // 2:-1], r[n // 2 - 1:]
    ok = np.isfinite(lg) & np.isfinite(r) & (r > 0)
    if np.count_nonzero(ok) < 8:
        return {"status": "no_decay", **unfitted}
    x = lg[ok] - lg[ok].mean()
    lr = np.log(r[ok])
    s = x @ lr / (x @ x)  # the least-squares slope
    scatter = float(np.max(np.abs(lr - lr.mean() - s * x)))
    # the median by hand: the first np.median call imports numpy.ma, 1.5 MB of RSS
    rs = np.sort(r[ok])
    return {"status": "ok" if scatter <= FIT_SCATTER_TOL else "scattered",
            "mu_estimate": float(1.0 - 0.5 / (1.0 - s)),
            "rate": float(0.5 * (rs[(len(rs) - 1) // 2] + rs[len(rs) // 2])),
            "scatter": scatter}
