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
Its working arrays (Z, the three RK4 arrays and the ring) start on cache
lines (torus.cache_aligned), so a step's speed does not depend on where
the heap puts them.

Slabs.  On a grid of at least SLAB_SPLIT_MIN_POINTS = 28^3 points, in a
process allowed two or more CPUs (os.sched_getaffinity), each RK4 stage
runs as two x1 slabs, rows [0, N/2) and [N/2, N): this thread takes the
first, and one worker thread (a daemon, made when a run first splits) the
second.  Otherwise the run is one slab: each step is the plain RK4 step
on the whole grid, on this thread, with no stage machinery.  A slab's
work is pointwise or a product whose output rows are its own:
torus.curvature with rows (the x1 derivative is D's slab rows times every
row, x2 and x3 stay in the slab, the brackets are pointwise) and the stage
updates (_advance, k *= 2, ksum += k) on row views.  numpy releases the GIL
in its ufunc loops and BLAS calls, so the slabs run at once.  A barrier
ends each stage, since the next curvature's x1 derivative reads every row;
a curvature and the update after it are separate stages, since the update
overwrites the stage point that the other slab's x1 derivative reads.  The
last update writes the new state into k's rows instead, so it shares the
k4 stage, and the next k1 shares its stage with the first update: six
stages a step.  The slabs share one curvature scratch, taken by this
thread for each curvature stage, as its rows.  The monitors of a recorded
state stay on this thread.  Every value is formed by the same operations
in either layout, so the trace is the one-slab trace bit for bit.

Every BLAS product stays small enough that OpenBLAS runs it on the calling
thread (torus.SERIAL_GEMM_MNK); a larger one wakes OpenBLAS's own worker,
which then spins on the core the other slab needs.  At N = 32 on
nonabelian data one curvature takes 2.9 ms on one slab and 1.5 ms on two,
but 2.7 ms on two with each x1 product whole, (16, 32) by (32, 2048)
(medians of 200 calls).  The crossover is measured, in ms per step, one
slab against two (2-vCPU Xeon VM, OpenBLAS capped at 2 threads, medians of
7 interleaved runs):

    N   abelian        nonabelian
    12  0.20 -> 0.78
    16  0.37 -> 0.93   1.70 -> 3.52
    20                 3.56 -> 4.15
    24  1.33 -> 1.49   7.02 -> 6.10
    26  1.93 -> 1.86   9.50 -> 7.28
    28  2.50 -> 2.22   12.8 -> 8.74
    32  4.16 -> 3.06   20.7 -> 12.9

On small grids the handover costs more than the halved stage saves (numpy
keeps the GIL for short loops); abelian data, one coefficient, gains
later than nonabelian data, and from 28^3 both gain.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .reporting import csv_text, finite_or_none
from .torus import (
    FORM_COEFF, TorusField, cache_aligned, complex_connection, cs_functional, curvature, div_cov,
)

CFL_FACTOR = 0.2
# the largest |residual| of lojasiewicz_fit's line that still fits one law:
# the Nahm-pole flow (N = 6, dt = 0.05 h) reads 5e-6 to 5e-4 over 99 to 300
# steps and 1.5 at 400, once its tail has left the Nahm sector
FIT_SCATTER_TOL = 1e-2
# grid points (N^3) from which a run splits each RK4 stage into two x1 slabs
SLAB_SPLIT_MIN_POINTS = 28 ** 3

_slab_worker = None  # the _SlabWorker of the second slab, made when a run first splits


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


class _SlabWorker:
    """One daemon thread that runs task(rows, *args) for run_flow's second
    slab: start hands it a task, wait blocks until the task is done and
    raises what it raised."""

    def __init__(self):
        self._job = None
        self._go, self._done = threading.Semaphore(0), threading.Semaphore(0)
        threading.Thread(target=self._serve, name="kwlab-slab", daemon=True).start()

    def _serve(self):
        while True:
            self._go.acquire()
            self._job = self._run(*self._job)  # drops the job, and its scratch
            self._done.release()

    @staticmethod
    def _run(task, rows, args):
        """None once task(rows, *args) is done, or what it raised."""
        try:
            # numpy's error state is per thread, and this one starts from
            # the default, which warns: take run_flow's
            with np.errstate(over="ignore", invalid="ignore"):
                task(rows, *args)
        except BaseException as exc:
            return exc
        return None

    def start(self, task, rows, args):
        self._job = task, rows, args
        self._go.release()

    def wait(self):
        self._done.acquire()
        if self._job is not None:
            raise self._job


def _forget_slab_worker():
    global _slab_worker, _slab_lock
    _slab_worker, _slab_lock = None, threading.Lock()


_slab_lock = threading.Lock()  # one split stage at a time, whichever run it serves
if hasattr(os, "register_at_fork"):
    # a forked child has no worker thread, and may hold a copy of the lock
    # taken: it starts afresh
    os.register_at_fork(after_in_child=_forget_slab_worker)


def _slabs(N: int) -> tuple[slice, slice] | None:
    """The two x1 slabs of a run on the N^3 grid, rows [0, N/2) and
    [N/2, N); None, one slab, below SLAB_SPLIT_MIN_POINTS or with fewer than
    two CPUs to run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if N ** 3 < SLAB_SPLIT_MIN_POINTS or cpus < 2:
        return None
    return slice(0, N // 2), slice(N // 2, N)


def _on_slabs(slabs, task, *args):
    """task(rows, *args) for both slabs, the second on the slab worker
    (made on first use) while this thread runs the first; returns once both
    are done."""
    global _slab_worker
    with _slab_lock:
        if _slab_worker is None:
            _slab_worker = _SlabWorker()
        _slab_worker.start(task, slabs[1], args)
        try:
            task(slabs[0], *args)
        finally:
            _slab_worker.wait()


def run_flow(F0: TorusField, config: FlowConfig) -> FlowTrace:
    """Integrate the ascending flow; returns the monitored trace.

    The energy-identity column at step n compares the 5-point centred
    difference of cs with rate = int(|curl_A a|^2 + |da/dt|^2) (da/dt from a
    ring of the last five a states), the two-forms column rate with
    |grad|^2, each relative to the sum of the two, so at any amplitude; the
    first and last two steps carry zeros.

    The run carries Z = A + i a and evaluates torus.curvature once per RK4
    stage, on each slab (see the module docstring).  The curvature at a
    recorded state is both what its monitors reduce and the k1 of the next
    RK4 step, evaluated once for the two.  The run stops at the first
    recorded state whose cs or gradient norm is not finite: meta["status"]
    is then "diverged" and meta["blowup_step"] that step (the trace ends
    with it), else "completed".

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
    ring = cache_aligned((5,) + Z.shape, float)  # the a of state i is in ring[i % 5]

    def record(i, FZ):
        """Monitor state i, whose curvature is FZ (the next step's k1)."""
        a = ring[i % 5]
        np.copyto(a, Z.imag)
        work = TorusField(F.N, F.L, Z.real, a, F.scheme)
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

    # RK4 in three arrays, reused at every step: ksum starts as k1, the
    # record's curvature, and sums k1 + 2 k2 + 2 k3 + k4 in that order
    ksum, k, stage = (cache_aligned(Z.shape, Z.dtype) for _ in range(3))
    slabs = _slabs(F.N)
    if slabs is None:
        def at_state():  # the curvature at Z: the record's, and k1
            curvature(F, Z, ksum)

        def step():
            nonlocal Z, k, ksum, stage
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
    else:
        # the same step as stages on the x1 rows r of every array, each done
        # on both slabs before the next starts; the slabs share curvature's
        # scratch, taken here for each curvature stage
        def scratch():
            return np.empty((4,) + Z.shape[2:], Z.dtype)

        def k1(r, d):  # the curvature at Z, then the first stage point
            curvature(F, Z, ksum, r, d)
            _advance(Z[:, :, r], ksum[:, :, r], 0.5 * dt, stage[:, :, r])

        def k23(r, d):
            curvature(F, stage, k, r, d)

        def step_to(h):
            def add(r):  # the stage point Z + h k, and 2 k into the sum
                kr, sr = k[:, :, r], ksum[:, :, r]
                _advance(Z[:, :, r], kr, h, stage[:, :, r])
                kr *= 2
                sr += kr
            return add

        half_step, full_step = step_to(0.5 * dt), step_to(dt)

        def k4(r, d):  # k4, then the new state, into k's rows (k is free again)
            curvature(F, stage, k, r, d)
            kr, sr = k[:, :, r], ksum[:, :, r]
            sr += kr
            _advance(Z[:, :, r], sr, dt / 6.0, kr)

        def at_state():
            _on_slabs(slabs, k1, scratch())

        def step():
            nonlocal Z, k
            _on_slabs(slabs, k23, scratch())  # k2
            _on_slabs(slabs, half_step)
            _on_slabs(slabs, k23, scratch())  # k3
            _on_slabs(slabs, full_step)
            _on_slabs(slabs, k4, scratch())
            Z, k = k, Z

    meta = {"N": F0.N, "L": F0.L, "dt": dt, "scheme": F0.scheme, "abelian": abelian,
            "status": "completed"}
    # a diverging run overflows on its way to the state that stops it; the
    # status below reports that instead of numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        at_state()
        record(0, ksum)
        last = 0
        while last < config.steps and finite(last):
            step()
            last += 1
            at_state()
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
