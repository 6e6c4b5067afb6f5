"""su(2) / sl(2,C) arithmetic with the sign conventions used throughout.

Basis: sigma_i = i * (i-th Pauli matrix), so that

    sigma_i^2 = -1,   sigma_1 sigma_2 = -sigma_3   (cyclic).

Note the minus sign in the product rule; it is deliberate and the whole
package depends on it.  The algebra suite's ``product_table`` row checks all
six products, so a wrong realization fails that row in a full report.

Inner product on su(2): <u, v> = -1/2 trace(u v), which makes
{sigma_1, sigma_2, sigma_3} orthonormal.  On sl(2,C) the same bilinear
trace pairing is kept, and the positive-definite Hermitian product is
<u, v>_H = 1/2 trace(u^dag v) (equivalently <star(u) v> with
star(u) = -u^dag).

The rest of the package stores su(2) / sl(2,C) values as their coefficient
vectors (v1, v2, v3) in this basis, real for su(2).  There the bracket is
[u, v] = -2 u x v, the Hermitian product is sum_a conj(u_a) v_a and the
trace pairing is sum_a u_a v_a; ``coeff_bracket`` and ``coeff_norm`` are
the coefficient forms of ``bracket`` and ``norm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

#: sigma_i = i * Pauli_i, anti-Hermitian, traceless, sigma1 sigma2 = -sigma3
SIGMA = tuple(1j * p for p in _PAULI)

CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # the (k, i, j) with eps_kij = 1

# Raising/lowering combinations: E_PLUS spans L^+, E_MINUS spans L^-.
E_PLUS = SIGMA[0] - 1j * SIGMA[1]
E_MINUS = SIGMA[0] + 1j * SIGMA[1]


def basis_sigma(i: int) -> np.ndarray:
    """Return sigma_i for i in {1, 2, 3} (copies, safe to mutate)."""
    if i not in (1, 2, 3):
        raise ValueError(f"sigma index must be 1, 2 or 3, got {i}")
    return SIGMA[i - 1].copy()


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Trace pairing -1/2 trace(u v); real and >= 0 on su(2) diagonal.

    Batched over the leading axes of (..., 2, 2) arrays (a scalar for 2x2).
    """
    return -0.5 * np.trace(u @ v, axis1=-2, axis2=-1)


def herm_inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Positive-definite Hermitian product 1/2 trace(u^dag v) on sl(2,C).

    Batched over the leading axes of (..., 2, 2) arrays (a scalar for 2x2).
    """
    return 0.5 * np.sum(u.conj() * v, axis=(-2, -1))


def norm(u: np.ndarray) -> np.ndarray:
    """Hermitian norm; agrees with sqrt(inner(u,u)) on su(2).

    Batched over the leading axes of (..., 2, 2) arrays (a scalar for 2x2).
    """
    return np.sqrt(np.maximum(herm_inner(u, u).real, 0.0))


def bracket(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Commutator u v - v u; batched over the leading axes of (..., 2, 2) arrays."""
    return u @ v - v @ u


# index expressions of the three sigma coefficients on the last axis and on axis 0
_COMPONENTS = {-1: ((..., 0), (..., 1), (..., 2)), 0: ((0, ...), (1, ...), (2, ...))}


def coeff_bracket(u, v, out=None, axis=-1):
    """[u, v] = -2 (u x v) on sigma coefficients, by components: on the last
    axis, or with axis=0 on the first (the torus's layout); batched and
    broadcast over the other axes, sl(2,C) for complex coefficients.
    Written to out (of the broadcast shape and result type) when given, and
    returned.  On one coefficient each (the sigma3 line) the bracket is the
    scalar 0.0; any other coefficient length than 3 raises ValueError.
    """
    u, v = np.asarray(u), np.asarray(v)
    if (lengths := (u.shape[axis], v.shape[axis])) != (3, 3):
        if lengths == (1, 1):
            return 0.0
        raise ValueError(f"coefficient axis {axis} has lengths {lengths}, not 3")
    i0, i1, i2 = _COMPONENTS[axis]
    u0, u1, u2, v0, v1, v2 = u[i0], u[i1], u[i2], v[i0], v[i1], v[i2]
    if out is None:
        out = np.empty(np.broadcast_shapes(u.shape, v.shape), np.result_type(u, v))
    # out[i], with its Ellipsis, is a view even for (3,) operands
    for i, p, q, r, s in ((i0, u2, v1, u1, v2), (i1, u0, v2, u2, v0), (i2, u1, v0, u0, v1)):
        o = out[i]
        np.multiply(p, q, out=o)
        o -= r * s
    out *= 2
    return out


def coeff_norm(u) -> np.ndarray:
    """Hermitian norm sqrt(sum_a |u_a|^2) of coefficient vectors on the last
    axis; equals ``norm`` of the matrix they stand for."""
    u = np.asarray(u)
    return np.sqrt(np.sum((u.conj() * u).real, axis=-1))


def star(v: np.ndarray) -> np.ndarray:
    """The involution v -> -v^dag; fixes su(2), swaps L^+ and L^-."""
    return -v.conj().T


def su2_to_coeffs(u: np.ndarray) -> np.ndarray:
    """Coefficients (v1,v2,v3) with u = sum v_a sigma_a; real for su(2) input."""
    c = np.array([inner(basis_sigma(a), u) for a in (1, 2, 3)])
    if np.max(np.abs(c.imag)) <= 1e-12:
        return c.real
    return c


def coeffs_to_su2(v) -> np.ndarray:
    """sum_a v_a sigma_a for coefficients on the last axis: (..., 3) -> (..., 2, 2)."""
    v = np.asarray(v)[..., None, None]
    return v[..., 0, :, :] * SIGMA[0] + v[..., 1, :, :] * SIGMA[1] + v[..., 2, :, :] * SIGMA[2]


@dataclass
class LDecomp:
    """Decomposition of an sl(2,C) element along L^+ + C sigma_3 + L^-.

    L^+/- are the +-1 eigenspaces of ad(i/2 sigma_3); with the sigma
    realization above, [i/2 sigma_3, sigma_1 - i sigma_2] = +(sigma_1 - i sigma_2),
    so L^+ = C (sigma_1 - i sigma_2) and L^- = C (sigma_1 + i sigma_2).
    (The same subspaces are the -i / +i eigenspaces of ad(1/2 sigma_3).)

    For a stack of elements, plus and minus are (..., 2, 2) and zero has the
    leading shape (...).
    """

    plus: np.ndarray
    zero: complex
    minus: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """plus + zero sigma_3 + minus, of the shape of plus."""
        return self.plus + np.multiply.outer(self.zero, SIGMA[2]) + self.minus


def l_decompose(v: np.ndarray) -> LDecomp:
    """Split v in sl(2,C) into its L^+, C sigma_3 and L^- parts.

    With v = [[a, b], [c, -a]]: the sigma_3 coefficient is -i a, the L^-
    part is proportional to the upper-triangular generator and the L^+
    part to the lower-triangular one.  Batched over the leading axes of
    (..., 2, 2) arrays.
    """
    a = v[..., 0, 0]
    b = v[..., 0, 1]
    c = v[..., 1, 0]
    zero = -1j * a
    plus = np.multiply.outer(-1j * c / 2.0, E_PLUS)
    minus = np.multiply.outer(-1j * b / 2.0, E_MINUS)
    return LDecomp(plus=plus, zero=zero, minus=minus)


def ad_half_isigma3(v: np.ndarray) -> np.ndarray:
    """[i/2 sigma_3, v]; L^+ and L^- are its +-1 eigenspaces."""
    return bracket(0.5j * SIGMA[2], v)


def random_sl2c(rng: np.random.Generator) -> np.ndarray:
    re = rng.normal(size=3)
    im = rng.normal(size=3)
    return coeffs_to_su2(re + 1j * im)

