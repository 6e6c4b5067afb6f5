"""Truncated Fourier-mode machinery at the trivial torus background.

A ModeVector stores complex coefficients c_k of an 8-component su(2)-valued
field for integer modes |k|_inf <= k_max; the reality condition is
c_{-k} = conj(c_k).  At the trivial background, the spatial first-order
operator acts mode by mode through the Hermitian symbol

    S(k) = i (gamma . k) (2 pi / L),

with S^2 = lambda^2 I, lambda = |k| 2 pi / L, so evolution, the projectors
P+- of ``decaying_sector`` (-S decays exactly on the range of P+) and the
inverse S / lambda^2 (off the kernel, exactly the k = 0 block) are all exact.
``clifford.symbol`` takes a stack of wavevectors, so each of these is one
batched product over the modes.  Grid and mode data are one FFT pair:
``ModeVector.to_grid`` is the inverse FFT of the coefficients (wavevectors
that alias on a small grid add) and ``from_grid`` reads the coefficients off
the forward FFT.

The quadratic coupling used by the fixed-point construction takes
psi = (b, bt, c, ct) to

    p_i  = -[b_i, bt] - eps_ijk [b_j, c_k] + [c_i, ct]
    pt   = 0
    q_i  = -[b_i, ct] - 1/2 eps_ijk ([b_j, b_k] - [c_j, c_k]) - [c_i, bt]
    qt   = [bt, ct] + sum_i [b_i, c_i]

(the static quadratic remainder of the full nonlinear map: its linear part
is the symbol above).  Note bt/ct couplings are kept even though the inputs
of interest have none: the fixed point may develop them.

A degenerate but exact feature of the trivial background: a *constant*
1-form-slot input has a constant quadratic image, which the kernel
projection removes entirely, so its fixed point is identically zero.  The
quadratic response is therefore probed with nonconstant 1-form-slot inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import CYCLIC, coeff_bracket as comm
from .clifford import symbol
from .torus import TorusField, stencil_symbol

# the (A, a) slots: the flow's fields, without the scalar slots 3 and 7
AA_SLOTS = (0, 1, 2, 4, 5, 6)
# the unit wavevectors along the axes: positive_spectrum_field's modes for
# abelian flow data that decays at the one rate of the lowest axis mode
AXIS_MODES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def k_lattice(k_max: int) -> np.ndarray:
    r = range(-k_max, k_max + 1)
    return np.array([(i, j, k) for i in r for j in r for k in r], dtype=int)


@dataclass
class ModeVector:
    """Fourier data: ks (n, 3) int, coeffs (n, 8, 3) complex, torus side L."""

    ks: np.ndarray
    coeffs: np.ndarray
    L: float = 2.0 * math.pi

    def __post_init__(self):
        self.ks = np.asarray(self.ks, dtype=int)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (len(self.ks), 8, 3):
            raise ValueError("coeffs must have shape (n_modes, 8, 3)")

    @functools.cached_property
    def _index(self) -> dict:
        """{tuple(k): row} of ks, built on first read."""
        return {tuple(k): i for i, k in enumerate(self.ks)}

    def reality_defect(self) -> float:
        worst = 0.0
        for i, k in enumerate(self.ks):
            j = self._index.get(tuple(-k))
            mirror = 0.0 if j is None else self.coeffs[j]  # a missing -k reads as zero
            worst = max(worst, float(np.max(np.abs(mirror - self.coeffs[i].conj()))))
        return worst

    def zero_mode_norm(self) -> float:
        j = self._index.get((0, 0, 0))
        if j is None:
            return 0.0
        return float(np.linalg.norm(self.coeffs[j]))

    def norm(self) -> float:
        """L2 norm over the torus (Parseval)."""
        return float(math.sqrt(self.L ** 3 * np.sum(np.abs(self.coeffs) ** 2)))

    def to_grid(self, N: int) -> np.ndarray:
        """Real field on the N^3 grid, shape (8, 3, N, N, N)."""
        spec = np.zeros((8, 3, N, N, N), dtype=complex)
        i0, i1, i2 = (self.ks % N).T
        np.add.at(spec, (..., i0, i1, i2), self.coeffs.transpose(1, 2, 0))
        out = np.fft.ifftn(spec, axes=(-3, -2, -1), norm="forward")
        defect = float(np.max(np.abs(out.imag)))
        if defect > 1e-9 * float(np.max(np.abs(out))):
            raise ValueError(f"reality violated on the grid (defect {defect:g})")
        return out.real


def from_grid(field8: np.ndarray, ks: np.ndarray, L: float = 2 * math.pi) -> ModeVector:
    """Fourier data of a real grid field (8, 3, N, N, N) at the integer
    wavevectors ks (n, 3), a k_lattice for truncated data."""
    N = field8.shape[-1]
    fk = np.fft.fftn(field8, axes=(-3, -2, -1), norm="forward")
    i0, i1, i2 = (ks % N).T
    return ModeVector(ks, fk[..., i0, i1, i2].transpose(2, 0, 1), L)


def decaying_sector(k, L: float = 2 * math.pi, slots=slice(None)):
    """(rate, P_plus, P_minus) at real wavevectors k (..., 3), zero at k = 0:
    the +- eigenspace projectors of S = symbol(k, L) on ``slots`` (default
    all 8), P+- = (S^2 +- lambda S) / (2 lambda^2), exact there since S^2 =
    lambda^2 I on all 8 slots and S has spectrum {-lambda, 0, lambda} on the
    (A, a) slots.  S is scaled by its largest entry first, so no lambda^2 of
    the raw symbol (which underflows at large L) is formed, and lambda is
    read from S's entries, not from w |k|."""
    S = symbol(np.asarray(k, dtype=float), L)
    scale = np.max(np.abs(S), axis=(-2, -1))
    S = np.divide(S, scale[..., None, None], out=np.zeros_like(S),
                  where=scale[..., None, None] > 0)
    mu = np.linalg.norm(S[..., 0, :], axis=-1)  # (S^2)_00 on all 8 slots
    S = S[..., slots, :][..., slots]
    S2 = S @ S
    m = np.where(mu > 0, mu, 1.0)[..., None, None]  # S = 0 at k = 0
    return mu * scale, (S2 + m * S) / (2 * m * m), (S2 - m * S) / (2 * m * m)


def linearized_decay(k_max: int, psi0: ModeVector, T: float, dt: float) -> dict:
    """Evolve d psi/dt = -(spatial operator) psi exactly in mode space.

    Returns times and the norms f_plus, f_minus of the projections onto the
    positive/negative symbol eigenspaces, f+-(t)^2 = L^3 sum_k
    e^{-+2 lambda_k t} |P+-(k) c_k|^2.  psi0 must be free of zero-mode
    content (tolerance 1e-12 relative).
    """
    if psi0.zero_mode_norm() > 1e-12 * max(psi0.norm(), 1e-300):
        raise ValueError("zero-mode contamination above 1e-12")
    times = np.arange(0.0, T + 0.5 * dt, dt)
    rate, p_plus, p_minus = decaying_sector(psi0.ks, psi0.L)
    norms = [psi0.L ** 3 * np.sum(np.abs(p @ psi0.coeffs) ** 2, axis=(1, 2))
             for p in (p_plus, p_minus)]
    growth = np.outer(times, rate)  # (nt, modes)
    return {"times": times, "f_plus": np.sqrt(np.exp(-2 * growth) @ norms[0]),
            "f_minus": np.sqrt(np.exp(2 * growth) @ norms[1])}


def random_mode_vector(rng: np.random.Generator, k_max: int, scale: float = 1.0,
                       slots=range(8)) -> ModeVector:
    """Random reality-symmetric mode data supported on the given slots,
    zero at k = 0."""
    ks = k_lattice(k_max)
    coeffs = np.zeros((len(ks), 8, 3), dtype=complex)
    index = {tuple(k): i for i, k in enumerate(ks)}
    for i, k in enumerate(ks):
        tk = tuple(k)
        if tk <= tuple(-k):
            continue  # fill each +-k pair once; k = 0, its own mirror, stays zero
        c = rng.normal(scale=scale, size=(8, 3)) + 1j * rng.normal(scale=scale, size=(8, 3))
        c[np.setdiff1d(np.arange(8), list(slots))] = 0.0
        coeffs[i] = c
        coeffs[index[tuple(-k)]] = c.conj()
    return ModeVector(ks, coeffs)


# ---------------------------------------------------------------------------
# The quadratic coupling and the contraction fixed point


class ContractionError(RuntimeError):
    def __init__(self, lipschitz):
        self.observed_lipschitz = lipschitz
        super().__init__(
            f"fixed-point iteration is not a contraction "
            f"(observed Lipschitz estimate {lipschitz:.3f}); shrink the input"
        )


def _quadratic_terms() -> tuple[np.ndarray, np.ndarray]:
    """The (u, v) slots of the 28 brackets [u, v] of the # coupling, term t
    of output row r at 7 t + r: rows p_1, p_2, p_3, q_1, q_2, q_3, qt, each
    with its four brackets in the order quadratic_map_grid adds them."""
    rows = ([((i, 3), (4 + i, 7), (j, 4 + k), (k, 4 + j)) for i, j, k in CYCLIC]
            + [((i, 7), (4 + i, 3), (j, k), (4 + j, 4 + k)) for i, j, k in CYCLIC]
            + [((3, 7), (0, 4), (1, 5), (2, 6))])
    pairs = np.array(rows).transpose(1, 0, 2).reshape(28, 2)
    return pairs[:, 0], pairs[:, 1]


_QUAD_U, _QUAD_V = _quadratic_terms()


def quadratic_map_grid(psi: np.ndarray) -> np.ndarray:
    """The # coupling on grid fields (8, 3, N, N, N) -> same shape; the
    eps_ijk sums run over the cyclic (i, j, k).

    The 28 brackets are one comm on the stacked operands, (3, 28, N, N, N),
    then each output slot adds its four, left to right, as
    -[b_i, bt] + [c_i, ct] - [b_j, c_k] + [b_k, c_j] (and likewise) does.
    """
    coeff_first = psi.swapaxes(0, 1)
    t = comm(coeff_first[:, _QUAD_U], coeff_first[:, _QUAD_V], axis=0)
    t0, t1, t2, t3 = t.reshape((3, 4, 7) + psi.shape[2:]).swapaxes(0, 1)
    out = np.zeros_like(psi)
    o = out.swapaxes(0, 1)
    o[:, 0:3] = -t0[:, 0:3] + t1[:, 0:3] - t2[:, 0:3] + t3[:, 0:3]
    o[:, 4:7] = -t0[:, 3:6] - t1[:, 3:6] - t2[:, 3:6] + t3[:, 3:6]
    o[:, 7] = t0[:, 6] + t1[:, 6] + t2[:, 6] + t3[:, 6]
    return out


def _grid_size(k_max: int) -> int:
    n = 3 * k_max + 1  # dealiasing: quadratic images stay clean up to k_max
    return n + n % 2  # even


def kuranishi_w(phi: ModeVector, k_max: int) -> tuple[ModeVector, dict]:
    """Fixed point of w -> -Linv (1 - Pi0) ((phi + w) # (phi + w)).

    phi must live in the 1-form slots (b, c) only.  Iteration starts at
    w = 0 and converges geometrically inside the contraction radius, until
    an update is at most 1e-12 or for at most 200 steps; the observed ratio
    of successive update norms is reported, and a ratio above 1 (or no
    convergence in 200 steps) raises ContractionError.

    Returned diagnostics include kappa = |w| / |phi|^2 and the fixed-point
    residual |Lw + (1 - Pi0) #(phi + w)| (which for kernel inputs phi is the
    full truncated-map residual).
    """
    if any(np.max(np.abs(phi.coeffs[:, s])) > 0 for s in (3, 7)):
        raise ValueError("input must have only 1-form slots")
    if phi.reality_defect() > 1e-12:
        raise ValueError("input violates the reality condition")
    N = _grid_size(k_max)
    phig = phi.to_grid(N)
    ks = k_lattice(k_max)
    S = symbol(ks, phi.L)
    wk2 = (2 * math.pi / phi.L) ** 2 * np.sum(ks * ks, axis=1)
    kernel = wk2 == 0
    S_inv = np.divide(S, wk2[:, None, None], out=np.zeros_like(S),  # 0 at k = 0
                      where=~kernel[:, None, None])

    def image(w):
        """(1 - Pi0) trunc #(phi + w): the projected quadratic image."""
        out = from_grid(quadratic_map_grid(phig + w.to_grid(N)), ks, phi.L).coeffs
        out[kernel] = 0.0
        return out

    w_mv = ModeVector(ks, np.zeros((len(ks), 8, 3), complex), phi.L)
    tol = 1e-12
    updates = []
    for it in range(200):
        new = ModeVector(ks, -(S_inv @ image(w_mv)), phi.L)
        delta = float(np.sqrt(np.sum(np.abs(new.coeffs - w_mv.coeffs) ** 2)))
        updates.append(delta)
        w_mv = new
        if len(updates) >= 2 and updates[-2] > 0:
            ratio = updates[-1] / updates[-2]
            if ratio >= 1.0:
                raise ContractionError(ratio)
        if delta <= tol:
            break
    else:
        raise ContractionError(updates[-1] / max(updates[-2], 1e-300))
    ratios = [updates[i + 1] / updates[i] for i in range(len(updates) - 1)
              if updates[i] > 10 * tol]
    # fixed-point residual |L w + (1 - Pi0) trunc(#)|
    resid = float(np.sqrt(np.sum(np.abs(S @ w_mv.coeffs + image(w_mv)) ** 2)) * phi.L ** 1.5)
    pn = phi.norm()
    diag = {
        "iterations": len(updates),
        "contraction_ratios": ratios,
        "max_ratio": max(ratios) if ratios else 0.0,
        "kappa": w_mv.norm() / pn ** 2 if pn > 0 else 0.0,
        "fixed_point_residual": resid,
        "w_norm": w_mv.norm(),
        "phi_norm": pn,
    }
    return w_mv, diag


# ---------------------------------------------------------------------------
# positive-spectrum initial data for the flow


def positive_spectrum_field(rng: np.random.Generator, N: int, amplitude: float,
                            L: float = 2 * math.pi, abelian: bool = False,
                            modes=None) -> TorusField:
    """A TorusField whose (A, a) data lies in the decaying (positive) part of
    the linearized flow spectrum.

    The flow's linearization at the flat point is -S on the (A, a) slots,
    S the mode symbol at the stencil's wavevector k~ (``torus.stencil_symbol``
    of each component), so each filled k carries the P+ projection
    (``decaying_sector``) of random su(2) data on the A slots; P+ of A data
    alone spans the two-dimensional decaying sector.  The flow contracts it
    at the rate |k~| per mode, but only in exact arithmetic: round-off seeds
    the growing modes of the saddle, which a long run amplifies past the data
    at any amplitude.  With abelian=True all values are proportional to
    sigma3, and the flow is exactly linear.

    modes lists the nonzero wavevectors to fill (k = 0 raises ValueError);
    by default every nonzero k with |k|_inf <= 1.
    """
    w = 2 * math.pi / L
    ks = [k for k in k_lattice(1) if np.any(k)] if modes is None else modes
    ks = np.array(ks, dtype=int).reshape(-1, 3)
    if not np.all(np.any(ks, axis=1)):
        raise ValueError("k = 0 has no decaying sector")
    F = TorusField(N, L)
    _, p_plus, _ = decaying_sector(stencil_symbol(F.scheme, N, L, ks) / w, L, AA_SLOTS)
    xs = np.arange(N) * (L / N)
    X = np.meshgrid(xs, xs, xs, indexing="ij")
    for k, p in zip(ks, p_plus):
        if tuple(k) < tuple(-k):
            continue  # one representative per pair; real part doubles it
        shape = (3, 1) if abelian else (3, 3)  # A slots x sigma coefficients
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        coeff = p[:, :3] @ (data * ([0.0, 0.0, 1.0] if abelian else 1.0))  # (6, 3)
        phase = np.exp(1j * w * (k[0] * X[0] + k[1] * X[1] + k[2] * X[2]))
        for field, part in ((F.A, coeff[:3]), (F.a, coeff[3:])):
            field += amplitude * np.real(part[:, :, None, None, None] * phase)
    return F
