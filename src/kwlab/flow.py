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
RK4 stage, and each recorded state's monitors reduce that same F_Z:
bind_monitor_densities forms their pointwise densities in the storage of the
RK4 array k, free from the end of a step until the next step's k2, and the grid
sums (TorusField.integrate, and the max of |a|^2) are then taken on the
whole density arrays.

Integrator: classical RK4 at fixed dt with the stability bound dt <= 0.2 h
asserted up front (h = grid spacing); no adaptivity, for reproducibility.
Its working arrays (the state and k, the RK4 sum and stage point, the ring
and the curvature scratch) start on cache lines (torus.cache_aligned), so
a step's speed does not depend on where the heap puts them.

Stages and slabs.  Every run takes one RK4 step, in six stages: k1 at the
state with its monitor densities and the first stage point; k2; the next
stage point, with 2 k2 into the sum; k3; the last stage point; k4 and the
new state.  Each stage runs on the x1 rows of every slab before the next
starts.  On a grid of at least SLAB_SPLIT_MIN_POINTS = 27^3 points, in a
process allowed two or more CPUs (os.sched_getaffinity), there are two
slabs, rows [0, N/2) and [N/2, N): this thread takes the first, and one
worker thread (a daemon, made when a run first splits) the second.
Otherwise there is one slab, slice(None), on this thread.  A slab's work
is pointwise or a product whose output rows are its own: the curvature at
its rows (the x1 derivative is D's slab rows times every row, x2 and x3
stay in the slab, the brackets are pointwise), the monitor densities at
its rows, and the stage updates (_advance, k *= 2, ksum += k) on row views.
numpy releases the GIL in its ufunc loops and BLAS calls, so two slabs run
at once.  A stage ends when every slab is done, since the next curvature's
x1 derivative reads every row; a curvature and the update after it are
separate stages, since the update overwrites the stage point that the
other slab's x1 derivative reads.  The last update writes the new state
into k's rows instead, and its a into the ring's rows, so it shares the k4
stage; the next k1 shares its stage with the state's densities (div_cov's
x1 derivative reads every row of that a) and the first update.  The slabs
share one curvature scratch for the run, as its rows; in the k1 stage they
also hold the densities' temporaries.  The grid sums stay on this thread,
after the k1 stage, since a pairwise sum depends on the array it runs over.
Every value is formed by the same operations on either number of slabs, so
a split run's trace is the one-slab trace bit for bit.

Bound once.  A run's arrays never change, only their contents: state i is
in W[i % 2] and the other array is the k of its step (the arrays swap
roles at each step), and state i's a is in ring slot i % 5.  So run_flow
binds each stage's work once per run, as lists of bound calls (the
binders of torus, and bind_monitor_densities), one list per slab: the
curvatures, the _advance updates, k *= 2 and ksum += k, for both roles of
W; the monitor densities for ten classes of state, as the lists of state
i depend on i only through i % 2 and i % 5, so state i runs class i % 10's
(the ring starts zeroed, and a rate formed before state 4 is never
recorded); and the views the record's grid sums read.
_advance, np, the derivative matrices and torus.comm (algebra.coeff_bracket)
are looked up as the run binds, so a defect planted before a run is what it
runs.  A step then runs the six prebound stages and the record (README.md,
"Flow step cost", has the time this saves).

Every BLAS product stays small enough that OpenBLAS runs it on the calling
thread (torus.SERIAL_GEMM_MNK); a larger one wakes OpenBLAS's own worker,
which then spins on the core the other slab needs.  At N = 32 on
nonabelian data one curvature takes 2.9 ms on one slab and 1.5 ms on two,
but 2.7 ms on two with each x1 product whole, (16, 32) by (32, 2048)
(medians of 200 calls).  The crossover is measured, in ms per step, one
slab against two (2-vCPU Xeon VM, OpenBLAS capped at 2 threads, medians of
7 interleaved runs, before the run bound its stages once):

    N   abelian        nonabelian
    12  0.18 -> 0.83   0.77 -> 2.67
    16  0.33 -> 0.97   1.59 -> 3.57
    20  0.67 -> 1.12   3.42 -> 3.97
    24  1.28 -> 1.41   6.68 -> 5.66
    26  1.81 -> 1.66   9.13 -> 6.52
    27  2.17 -> 1.90   10.7 -> 7.51
    28  2.38 -> 1.89   12.1 -> 7.72
    32  3.85 -> 2.62   19.3 -> 11.1

On small grids the handover costs more than the halved stage saves (numpy
keeps the GIL for short loops); abelian data, one coefficient, gains later
than nonabelian data.  At 26^3 it gained in three of four such rounds and
lost in one (1.83 -> 1.89); at 27^3 it gained in all three, so from 27^3
both split.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .reporting import csv_text, finite_or_none
from .torus import (
    FORM_COEFF, TorusField, bind_cs_densities, bind_curvature, bind_div_cov, cache_aligned,
    complex_connection, cs_functional, run_calls,
)

CFL_FACTOR = 0.2
# the largest |residual| of lojasiewicz_fit's line that still fits one law:
# the Nahm-pole flow (N = 6, dt = 0.05 h) reads 5e-6 to 5e-4 over 99 to 300
# steps and 1.5 at 400, once its tail has left the Nahm sector
FIT_SCATTER_TOL = 1e-2
# grid points (N^3) from which a run splits each RK4 stage into two x1 slabs
SLAB_SPLIT_MIN_POINTS = 27 ** 3

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
    """One daemon thread that runs the bound calls of run_flow's second
    slab: start hands it a stage's list, wait blocks until the list has
    run and raises what it raised."""

    def __init__(self):
        self._job = None
        self._go, self._done = threading.Semaphore(0), threading.Semaphore(0)
        threading.Thread(target=self._serve, name="kwlab-slab", daemon=True).start()

    def _serve(self):
        while True:
            self._go.acquire()
            self._job = self._run(self._job)  # drops the job, and the arrays it holds
            self._done.release()

    @staticmethod
    def _run(calls):
        """None once the calls have run, or what they raised."""
        try:
            # numpy's error state is per thread, and this one starts from
            # the default, which warns: take run_flow's
            with np.errstate(over="ignore", invalid="ignore"):
                run_calls(calls)
        except BaseException as exc:
            return exc
        return None

    def start(self, calls):
        self._job = calls
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


def _slabs(N: int) -> tuple[slice, ...]:
    """The x1 slabs of a run on the N^3 grid as x1 slices: rows [0, N/2)
    and [N/2, N), or below SLAB_SPLIT_MIN_POINTS or with fewer than two
    CPUs to run on (slice(None),), one slab of every row."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if N ** 3 < SLAB_SPLIT_MIN_POINTS or cpus < 2:
        return (slice(None),)
    return slice(0, N // 2), slice(N // 2, N)


def _on_slabs(stage):
    """Run a stage, one list of bound calls per slab: the first on this
    thread; of two, the second on the slab worker (made on first use)
    meanwhile.  Returns once every slab is done."""
    global _slab_worker
    if len(stage) == 1:
        run_calls(stage[0])
        return
    with _slab_lock:
        if _slab_worker is None:
            _slab_worker = _SlabWorker()
        _slab_worker.start(stage[1])
        try:
            run_calls(stage[0])
        finally:
            _slab_worker.wait()


def _at(rows, *arrays):
    """Each array at the x1 slice `rows`, a view (at slice(None) with the
    array's strides).  The x1 axis is the third from last of every array
    here: a field's, curvature's scratch's and each monitor density's."""
    return tuple(x[..., rows, :, :] for x in arrays)


def _density_views(buf):
    """The monitor densities (|F_Z|^2, |d_A * a|^2, |a|^2, |da/dt|^2,
    cs_densities) as C-contiguous arrays in the real (N, N, N) planes of
    buf, a complex array of the field's shape: |F_Z|^2, Re and Im side by
    side, takes the first two as one (N, N, 2N) array, the cs densities the
    last one or two."""
    N = buf.shape[-1]
    p = buf.view(float).reshape(-1, N, N, N)
    return p[:2].reshape(N, N, 2 * N), p[2], p[3], p[4], p[5:6 + (buf.shape[1] > 1)]


def _scratch_planes(scratch, rows):
    """A real (2, 4, n, N, N) array in the storage of curvature's scratch at
    its x1 slice `rows` (all N at slice(None)): [0, :c] and [1, :c] are two
    temporaries of a c-coefficient field there."""
    (s,) = _at(rows, scratch)
    return s.view(float).reshape((4, 2) + s.shape[1:], copy=False).swapaxes(0, 1)


def bind_monitor_densities(F, Z, FZ, ring, i, dens, tmp, rows=slice(None)):
    """The pointwise monitor densities of state i into dens (_density_views),
    as bound calls: Z is the state, FZ its curvature, ring[i % 5] its a;
    also |da/dt|^2 at state i - 2, from the ring's 5-point difference formed
    in place in the slot of state i - 4, which the next state's a
    overwrites (below i = 4 the ring holds no such states yet, and the rate
    formed is not read).  tmp (_scratch_planes) holds the temporaries.
    Each density is one np.einsum pass, summing at each point over form and
    then coefficient in the order np.sum of the product adds them, or as
    cs_densities and div_cov form it.

    rows, a slice of the x1 axis (every row at slice(None)), picks the rows
    formed, the whole grid's bit for bit: div_cov's x1 derivative reads
    every row of a, all else these rows alone, so lists bound for disjoint
    rows may run at once.
    """
    f_sq, div_sq, a_sq, rate_sq, cs_dens = dens
    state = TorusField(F.N, F.L, Z.real, ring[i % 5], F.scheme)
    f_sq, div_sq, a_sq, rate_sq, cs_dens, fz, a = _at(
        rows, f_sq, div_sq, a_sq, rate_sq, cs_dens, FZ.view(float), state.a)
    c = Z.shape[1]
    dva = tmp[0, :c]
    calls = bind_cs_densities(state, FZ, cs_dens, tmp[1, :3], rows)
    calls.append(partial(np.einsum, FORM_COEFF, fz, fz, out=f_sq))
    calls += bind_div_cov(state, state.a, dva, tmp[1, :c], rows)
    calls += [partial(np.einsum, "c...,c...->...", dva, dva, out=div_sq),
              partial(np.einsum, FORM_COEFF, a, a, out=a_sq)]
    # the bracket (f[n-2] - f[n+2]) / 8 + f[n+1] - f[n-1] at n = i - 2; the
    # product with 0.125 is the quotient by 8 bit for bit (a power of two)
    d, a_next, a_prev = _at(rows, ring[(i - 4) % 5], ring[(i - 1) % 5], ring[(i - 3) % 5])
    # over form for each coefficient, then over coefficient: not
    # FORM_COEFF's rounding order, but the one this rate is defined by
    # (np.add.reduce(x, 0, None, out) is x.sum(axis=0, out=out))
    calls += [partial(np.subtract, d, a, d), partial(np.multiply, d, 0.125, d),
              partial(np.add, d, a_next, d), partial(np.subtract, d, a_prev, d),
              partial(np.einsum, "fc...,fc...->c...", d, d, out=tmp[1, :c]),
              partial(np.add.reduce, tmp[1, :c], 0, None, rate_sq)]
    return calls


def run_flow(F0: TorusField, config: FlowConfig) -> FlowTrace:
    """Integrate the ascending flow; returns the monitored trace.

    The energy-identity column at step n compares the 5-point centred
    difference of cs with rate = int(|curl_A a|^2 + |da/dt|^2) (da/dt from a
    ring of the last five a states), the two-forms column rate with
    |grad|^2, each relative to the sum of the two, so at any amplitude; the
    first and last two steps carry zeros.

    The run carries Z = A + i a and evaluates one curvature per RK4 stage
    (torus.bind_curvature's calls, bound once per run), on each slab (see
    the module docstring).  The curvature at a recorded state is both what
    its monitors reduce and the k1 of the next RK4 step, evaluated once for
    the two.  The run stops at the first recorded state whose cs or
    gradient norm is not finite: meta["status"] is then "diverged" and
    meta["blowup_step"] that step (the trace ends with it), else
    "completed".

    When the sigma1 and sigma2 coefficients of A and a are all zero
    (meta["abelian"] is True) the run integrates the sigma3 coefficient alone
    and reports the same trace bit for bit.  Derivatives act on each
    coefficient separately, and every product in the bracket of two
    sigma3-valued fields has a zero factor, so every RK4 stage keeps the
    sigma1 and sigma2 coefficients at exactly 0, and every monitor only adds
    exact zeros from them.
    """
    dt = config.dt
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt = {dt!r} is not finite and > 0")
    bound = CFL_FACTOR * F0.h
    if dt > bound:
        raise CFLError(dt, bound)
    A, a = F0.A, F0.a
    abelian = not (np.any(A[:, :-1]) or np.any(a[:, :-1]))
    F = F0
    if abelian:
        F = TorusField(F0.N, F0.L, A[:, -1:], a[:, -1:], F0.scheme)
    n_rec = config.steps + 1
    times = np.zeros(n_rec)
    cs = np.zeros(n_rec)
    gns = np.zeros(n_rec)
    drift = np.zeros(n_rec)
    sup_a = np.zeros(n_rec)
    e_curl = np.zeros(n_rec)   # int |curl_A a|^2
    ei = np.zeros(n_rec)
    tf = np.zeros(n_rec)

    # RK4 in four arrays.  State i is in W[i % 2]; the other one is the k
    # of its step, which holds the state's monitor densities from k1 until
    # k2 overwrites them, and takes the next state at k4.  ksum starts as
    # k1, the curvature at the state, and sums k1 + 2 k2 + 2 k3 + k4 in
    # that order.  The curvatures share one scratch d for the run, whose
    # rows the densities' temporaries also take in the k1 stage.
    Z = complex_connection(F)
    W = Z, cache_aligned(Z.shape, Z.dtype)
    ksum, stage = (cache_aligned(Z.shape, Z.dtype) for _ in range(2))
    d = cache_aligned((4,) + Z.shape[2:], Z.dtype)
    ring = cache_aligned((5,) + Z.shape, float)  # the a of state i is in ring[i % 5]
    ring.fill(0.0)  # what the first four states' unread rates read
    np.copyto(ring[0], Z.imag)
    dens = [_density_views(W[1 - p]) for p in (0, 1)]  # those of a state in W[p]
    advance = _advance  # looked up now: a planted defect may have replaced it

    def slab_stages(r):
        """The stages of slab r that lead to a state i > 0 of each class
        i % 10, as lists of bound calls: the five stages of the step to it
        (k2; the next stage point, with 2 k2 into the sum; k3; the last
        stage point; k4, with the new state into k's rows and its a into
        the ring's), then its k1 stage (its curvature, its monitor densities
        and the first stage point), which alone leads to state 0."""
        (ring_r,) = _at(r, ring)
        step_to = []  # [which of W holds the state stepped from][ring slot of the new one]
        for z, k in (W, W[::-1]):
            zr, kr, sr, st = _at(r, z, k, ksum, stage)
            k23 = bind_curvature(F, stage, k, r, d)
            half, full = ([partial(advance, zr, kr, h, st), partial(np.multiply, kr, 2, kr),
                           partial(np.add, sr, kr, sr)] for h in (0.5 * dt, dt))
            k4 = k23 + [partial(np.add, sr, kr, sr), partial(advance, zr, sr, dt / 6.0, kr)]
            step_to.append([(k23, half, k23, full, k4 + [partial(np.copyto, a, kr.imag)])
                            for a in ring_r])
        stages = []
        for i in range(10):
            z = W[i % 2]
            zr, sr, st = _at(r, z, ksum, stage)
            k1 = (bind_curvature(F, z, ksum, r, d)
                  + bind_monitor_densities(F, z, ksum, ring, i, dens[i % 2],
                                           _scratch_planes(d, r), r)
                  + [partial(advance, zr, sr, 0.5 * dt, st)])
            stages.append(step_to[1 - i % 2][i % 5] + (k1,))
        return stages

    # to_state[i % 10]: the stages that lead to state i > 0, each one list
    # per slab; state 0 takes only the last
    to_state = [tuple(zip(*per_slab))
                for per_slab in zip(*(slab_stages(r) for r in _slabs(F.N)))]
    sums = [(f_sq[..., 1::2], f_sq[..., ::2], div_sq, a_sq, rate_sq, cs_dens)
            for f_sq, div_sq, a_sq, rate_sq, cs_dens in dens]

    def record(i):
        """The grid sums of state i's monitors, from its densities."""
        f_curl, f_rest, div_sq, a_sq, rate_sq, cs_dens = sums[i % 2]
        times[i] = i * dt
        cs[i] = cs_functional(F, densities=cs_dens)
        e_curl[i] = F.integrate(f_curl)
        gns[i] = e_curl[i] + F.integrate(f_rest)
        drift[i] = math.sqrt(F.integrate(div_sq))
        sup_a[i] = math.sqrt(a_sq.max())
        if i >= 4:
            # step n = i - 2: f' = ((f[n-2] - f[n+2]) / 8 + f[n+1] - f[n-1]) 2 / (3 dt)
            n = i - 2
            scale = 2.0 / (3.0 * dt)
            rate = e_curl[n] + scale ** 2 * F.integrate(rate_sq)
            dcs = ((cs[n - 2] - cs[n + 2]) / 8.0 + cs[n + 1] - cs[n - 1]) * scale
            ei[n] = _rel_gap(dcs, rate)
            tf[n] = _rel_gap(rate, gns[n])

    def finite(i):
        return math.isfinite(cs[i]) and math.isfinite(gns[i])

    def reach(i):  # run the stages to state i, and record it
        stages = to_state[i % 10]
        for stage in stages[-1:] if i == 0 else stages:
            _on_slabs(stage)
        record(i)

    meta = {"N": F0.N, "L": F0.L, "dt": dt, "scheme": F0.scheme, "abelian": abelian,
            "status": "completed"}
    # a diverging run overflows on its way to the state that stops it; the
    # status below reports that instead of numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        last = 0
        reach(0)
        while last < config.steps and finite(last):
            last += 1
            reach(last)
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
    Fewer than 8 tail points with finite r > 0 give status "no_decay", a
    trace of fewer than 16 records "too_short", and a diverged run is
    reported as such; none of the three is fitted.
    """
    unfitted = {"mu_estimate": None, "rate": None, "scatter": None}
    if trace.meta.get("status") == "diverged":
        return {"status": "diverged", **unfitted}
    n = len(trace.times)
    if n < 16:
        return {"status": "too_short", **unfitted}
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
