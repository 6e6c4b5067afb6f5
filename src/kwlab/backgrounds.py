"""Background pairs (connection, Higgs 1-form) that the linearized operator sees.

A background provides, at batched points P of shape (..., 4) with coordinates
(t, x1, x2, x3), su(2) values as real sigma coefficients (last axis of 3):

    A_at(P)  -> (..., 3, 3)   spatial connection components (no dt part)
    a_at(P)  -> (..., 3, 3)   Higgs components (no dt part)

and, where the zeroth-order curvature data is needed,

    curvature_at(P) -> (E1, E2, B3), each (..., 3)   (all other components zero)
    dcov_a_at(P)    -> (..., 2, 2, 3)  grad_i a_j for i, j in {1, 2}

Four kinds: trivial (A = a = 0 anywhere), the pole background
a_i = -sigma_i/(2t), the integer-m model family, and trigonometric
time-independent data on a flat 3-torus (one periodic operator.TrigSection,
whose jet gives the curvature data exactly).
"""

from __future__ import annotations

import numpy as np

from .algebra import coeff_bracket
from .model import ModelSolution, evaluate
from .operator import TrigSection


def _batch(P):
    P = np.asarray(P, dtype=float)
    if P.shape[-1] != 4:
        raise ValueError("points must have shape (..., 4): (t, x1, x2, x3)")
    return P


class TrivialBackground:
    """A = 0, a = 0 on flat space; every point is admissible."""

    def domain_check(self, P) -> None:
        _batch(P)

    def A_at(self, P):
        P = _batch(P)
        return np.zeros(P.shape[:-1] + (3, 3))

    a_at = A_at

    def curvature_at(self, P):
        z = self.A_at(P)
        return z[..., 0, :], z[..., 1, :], z[..., 2, :]

    def dcov_a_at(self, P):
        P = _batch(P)
        return np.zeros(P.shape[:-1] + (2, 2, 3))


class NahmBackground:
    """Product connection with a_i = -sigma_i/(2t); flat, grad_i a_j = 0."""

    def domain_check(self, P) -> None:
        P = _batch(P)
        if np.any(P[..., 0] <= 0):
            raise ValueError("pole background needs t > 0")

    def A_at(self, P):
        P = _batch(P)
        return np.zeros(P.shape[:-1] + (3, 3))

    def a_at(self, P):
        P = _batch(P)
        self.domain_check(P)
        return (-1.0 / (2.0 * P[..., 0]))[..., None, None] * np.eye(3)

    def curvature_at(self, P):
        P = _batch(P)
        z = np.zeros(P.shape[:-1] + (3,))
        return z, z.copy(), z.copy()

    def dcov_a_at(self, P):
        P = _batch(P)
        return np.zeros(P.shape[:-1] + (2, 2, 3))


class ModelBackground:
    """The integer-m model solution as an operator background.

    Points must keep |z| = |x1 + i x2| outside the axis disk; the fields are
    x3-independent and scale equivariant.  grad_i a_j for i, j in {1, 2} is
    computed with 4th-order centered differences of the closed-form fields
    plus the connection commutator (step 1e-3 of the local scale, so its
    error is far below any test stencil's).
    """

    axis_exclusion = 1e-8

    def __init__(self, m: int):
        self.solution = ModelSolution(m)

    def domain_check(self, P) -> None:
        P = _batch(P)
        if np.any(P[..., 0] <= 0):
            raise ValueError("model background needs t > 0")
        r = np.hypot(P[..., 1], P[..., 2])
        if np.any(r < self.axis_exclusion):
            raise ValueError("point inside the excluded axis disk")

    def _eval(self, P):
        P = _batch(P)
        return evaluate(self.solution, P[..., 0], P[..., 1] + 1j * P[..., 2])

    def a_at(self, P):
        ev = self._eval(P)
        return np.stack([ev.a1, ev.a2, ev.a3], axis=-2)

    def A_at(self, P):
        ev = self._eval(P)
        return np.stack([ev.A1, ev.A2, np.zeros_like(ev.A1)], axis=-2)

    def curvature_at(self, P):
        ev = self._eval(P)
        return ev.E1, ev.E2, ev.B3

    def dcov_a_at(self, P):
        P = _batch(P)
        t = P[..., 0]
        r = np.hypot(P[..., 1], P[..., 2])
        h = 1e-3 * np.minimum(t, r)
        da = np.empty(P.shape[:-1] + (2, 2, 3))
        for i in range(2):
            shifts = []
            for step in (2.0, 1.0, -1.0, -2.0):
                Q = P.copy()
                Q[..., 1 + i] = Q[..., 1 + i] + step * h
                shifts.append(self.a_at(Q))
            f2, f1, fm1, fm2 = shifts
            da[..., i, :, :] = ((-f2 + 8.0 * f1 - 8.0 * fm1 + fm2)
                                / (12.0 * h)[..., None, None])[..., :2, :]
        # grad_i a_j = d_i a_j + [A_i, a_j]
        A, a = self.A_at(P), self.a_at(P)
        return da + coeff_bracket(A[..., :2, None, :], a[..., None, :2, :])


class TorusTrigBackground:
    """Time-independent trigonometric (A, a) on the flat torus of side 2 pi.

    Built from a list of terms (slot, comp, k, phase, coeffs) where slot is
    'A' or 'a', comp in {0,1,2}, k an integer 3-vector, and coeffs a real
    3-vector of sigma coefficients; each term contributes
    coeffs . sigma * cos(k.x + phase) to that component.  The terms form one
    periodic TrigSection (A in slots 0-2, a in 4-6), so A, a and their exact
    spatial derivatives are slices of its value or of one jet.
    """

    def __init__(self, terms):
        stacked = []
        for (slot, comp, k, phase, coeffs) in terms:
            amp = np.zeros((8, 3))
            amp[comp + (0 if slot == "A" else 4)] = coeffs
            stacked.append((amp, k, phase, (), 1.0))
        self._fields = TrigSection(stacked, envelope=0)

    def domain_check(self, P) -> None:
        _batch(P)

    def A_at(self, P):
        return self._fields.value(_batch(P))[..., 0:3, :]

    def a_at(self, P):
        return self._fields.value(_batch(P))[..., 4:7, :]

    def curvature_at(self, P):
        # E_i = [grad_t, grad_i] = 0 (time independent);
        # B3 = d1 A2 - d2 A1 + [A1, A2]
        f, d = self._fields.jet(_batch(P))
        b3 = d[..., 1, 1, :] - d[..., 2, 0, :] + coeff_bracket(f[..., 0, :], f[..., 1, :])
        z = np.zeros_like(b3)
        return z, z.copy(), b3

    def dcov_a_at(self, P):
        # grad_i a_j = d_i a_j + [A_i, a_j]
        f, d = self._fields.jet(_batch(P))
        return d[..., 1:3, 4:6, :] + coeff_bracket(f[..., :2, None, :], f[..., None, 4:6, :])


def make_background(kind: str):
    """Parse 'trivial' | 'nahm' | 'model' (m = 1) | 'model:m' into a background object."""
    if kind == "trivial":
        return TrivialBackground()
    if kind == "nahm":
        return NahmBackground()
    if kind == "model":
        return ModelBackground(1)
    if kind.startswith("model:"):
        try:
            m = int(kind[len("model:"):])
        except ValueError:
            raise ValueError(f"unknown background kind {kind!r}") from None
        return ModelBackground(m)
    raise ValueError(f"unknown background kind {kind!r}")
