"""Background pairs (connection, Higgs 1-form) that the linearized operator sees.

A background has two reads, at batched points P of shape (..., 4) with
coordinates (t, x1, x2, x3), su(2) values as real sigma coefficients (last
axis of 3):

    fields(P)   -> (A, a), each (..., 3, 3)   spatial connection and Higgs
                   components (no dt part), what D sees;
    x_fields(P) -> (a, E1, E2, B3, grad a)    a as above, the curvature
                   components (all others zero), each (..., 3), and
                   grad_i a_j for i, j in {1, 2}, (..., 2, 2, 3): what the
                   Weitzenbock remainder X also needs (``operator.x_blocks``).

Both are guarded: at a point outside the background's domain (t <= 0 at the
pole and for the model, the model's axis disk, or points whose last axis is
not 4) each raises ValueError before it evaluates anything, so there is no
unguarded read.

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


def _points(P, needs_t: str | None = None):
    """P as float points (..., 4), the guard of every read; a background
    named in needs_t also refuses t <= 0."""
    P = np.asarray(P, dtype=float)
    if P.shape[-1] != 4:
        raise ValueError("points must have shape (..., 4): (t, x1, x2, x3)")
    if needs_t is not None and np.any(P[..., 0] <= 0):
        raise ValueError(f"{needs_t} background needs t > 0")
    return P


class TrivialBackground:
    """A = 0, a = 0 on flat space; every point is admissible."""

    def fields(self, P):
        z = np.zeros(_points(P).shape[:-1] + (3, 3))
        return z, z

    def x_fields(self, P):
        shape = _points(P).shape[:-1]
        z = np.zeros(shape + (3,))
        return np.zeros(shape + (3, 3)), z, z, z, np.zeros(shape + (2, 2, 3))


class NahmBackground:
    """Product connection with a_i = -sigma_i/(2t); flat, grad_i a_j = 0."""

    def fields(self, P):
        t = _points(P, "pole")[..., 0]
        return np.zeros(t.shape + (3, 3)), (-1.0 / (2.0 * t))[..., None, None] * np.eye(3)

    def x_fields(self, P):
        a = self.fields(P)[1]
        z = np.zeros(a.shape[:-2] + (3,))
        return a, z, z, z, np.zeros(a.shape[:-2] + (2, 2, 3))


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

    def _guard(self, P):
        P = _points(P, "model")
        if np.any(np.hypot(P[..., 1], P[..., 2]) < self.axis_exclusion):
            raise ValueError("point inside the excluded axis disk")
        return P

    def _eval(self, P):
        return evaluate(self.solution, P[..., 0], P[..., 1] + 1j * P[..., 2])

    def fields(self, P):
        ev = self._eval(self._guard(P))
        return (np.stack([ev.A1, ev.A2, np.zeros_like(ev.A1)], axis=-2),
                np.stack([ev.a1, ev.a2, ev.a3], axis=-2))

    def x_fields(self, P):
        # one evaluation at P and one of the eight difference points, x1 then
        # x2 shifted by 2h, h, -h, -2h and stacked on a leading axis; only P
        # is guarded, as a P just outside the axis disk has shifts inside it
        P = self._guard(P)
        ev = self._eval(P)
        h = 1e-3 * np.minimum(P[..., 0], np.hypot(P[..., 1], P[..., 2]))
        Q = np.repeat(P[None], 8, axis=0)
        for n, step in enumerate((2.0, 1.0, -1.0, -2.0) * 2):
            Q[n, ..., 1 + n // 4] += step * h
        shifted = self._eval(Q)
        f = np.stack([shifted.a1, shifted.a2], axis=-2)
        da = (-f[0::4] + 8.0 * f[1::4] - 8.0 * f[2::4] + f[3::4]) / (12.0 * h)[..., None, None]
        # grad_i a_j = d_i a_j + [A_i, a_j], with A and a from the evaluation at P
        A, a = np.stack([ev.A1, ev.A2], axis=-2), np.stack([ev.a1, ev.a2], axis=-2)
        dca = np.moveaxis(da, 0, -3) + coeff_bracket(A[..., :, None, :], a[..., None, :, :])
        return np.stack([ev.a1, ev.a2, ev.a3], axis=-2), ev.E1, ev.E2, ev.B3, dca


class TorusTrigBackground:
    """Time-independent trigonometric (A, a) on the flat torus of side 2 pi.

    Built from a list of terms (slot, comp, k, phase, coeffs) where slot is
    'A' or 'a', comp in {0,1,2}, k an integer 3-vector, and coeffs a real
    3-vector of sigma coefficients; each term contributes
    coeffs . sigma * cos(k.x + phase) to that component.  The terms form one
    periodic TrigSection (A in slots 0-2, a in 4-6), so A and a are slices
    of its value, and x_fields' data slices of one jet.
    """

    def __init__(self, terms):
        stacked = []
        for (slot, comp, k, phase, coeffs) in terms:
            amp = np.zeros((8, 3))
            amp[comp + (0 if slot == "A" else 4)] = coeffs
            stacked.append((amp, k, phase, (), 1.0))
        self._fields = TrigSection(stacked, envelope=0)

    def fields(self, P):
        f = self._fields.value(_points(P))
        return f[..., 0:3, :], f[..., 4:7, :]

    def x_fields(self, P):
        # E_i = [grad_t, grad_i] = 0 (time independent);
        # B3 = d1 A2 - d2 A1 + [A1, A2] and grad_i a_j = d_i a_j + [A_i, a_j]
        f, d = self._fields.jet(_points(P))
        b3 = d[..., 1, 1, :] - d[..., 2, 0, :] + coeff_bracket(f[..., 0, :], f[..., 1, :])
        dca = d[..., 1:3, 4:6, :] + coeff_bracket(f[..., :2, None, :], f[..., None, 4:6, :])
        z = np.zeros_like(b3)
        return f[..., 4:7, :], z, z, b3, dca


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
