"""The 8x8 Clifford generators and every constant endomorphism built from them.

Two triples of integer 8x8 matrices, gamma_{1,2,3} and rho_{1,2,3}, generate
the algebra:

    gamma_i gamma_j + gamma_j gamma_i = -2 delta_ij
    rho_i  rho_j  + rho_j  rho_i   = -2 delta_ij
    gamma_i rho_j + rho_j gamma_i  = 0

All six are antisymmetric, traceless, with entries in {-1, 0, 1} and a single
nonzero entry per row, so every relation check below is exact integer
arithmetic.  The gamma_i are precisely the coefficient matrices of the three
spatial derivative slots in the 8x8 form of the linearized operator, and the
rho_i the coefficient matrices of the three Higgs-commutator slots.

Constant 24x24 endomorphisms acting on 8-component su(2)-valued vectors are
assembled as Kronecker products: an 8x8 matrix acts on the component index,
and ad(xi) (a real 3x3 matrix in the sigma-coefficient basis) acts on the
su(2) values.  Every endomorphism here is built on sigma coefficients, and
``ad_matrix`` and ``u_endo`` are batched, so the operator applies these same
definitions at its points.

The one such object that depends on a wavevector is ``fiber_symbol``, the
24x24 matrix M(k; A0, a0) = sum_i gamma_i (x) (i w k_i + ad A0_i) +
sum_i rho_i (x) ad a0_i, w = 2 pi / L, by which D's spatial part acts on the
mode exp(i k.x) at a constant background (A0, a0) on the flat torus.
"""

from __future__ import annotations

import numpy as np

from .algebra import coeff_bracket

_G1 = [
    [0, 0, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, -1, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, -1],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
]
_G2 = [
    [0, 0, 0, 0, 0, 0, -1, 0],
    [0, 0, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, -1],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
]
_G3 = [
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, -1, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 0, 0, 1, 0],
]
_R1 = [
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0],
]
_R2 = [
    [0, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, 0, 0, 0],
    [0, -1, 0, 0, 0, 0, 0, 0],
]
_R3 = [
    [0, 1, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 0],
]

GAMMA = tuple(np.array(m, dtype=np.int64) for m in (_G1, _G2, _G3))
RHO = tuple(np.array(m, dtype=np.int64) for m in (_R1, _R2, _R3))

_I8 = np.eye(8, dtype=np.int64)
_I3 = np.eye(3)


def relation_checks() -> list[tuple[str, int]]:
    """Every defining relation as (name, residual) in integer arithmetic: the
    largest |entry| of the relation's defect, 0 exactly when it holds."""
    def worst(defect) -> int:
        return int(np.max(np.abs(defect)))

    out: list[tuple[str, int]] = []
    for name, mats in (("gamma", GAMMA), ("rho", RHO)):
        for i in range(3):
            m = mats[i]
            out.append((f"{name}{i+1} antisymmetric", worst(m.T + m)))
            out.append((f"{name}{i+1} traceless", worst(np.trace(m))))
            # a row count other than 1, or an entry beyond +-1
            out.append((f"{name}{i+1} one nonzero entry per row, entries in {{-1,0,1}}",
                        max(worst(np.sum(m != 0, axis=1) - 1), worst(m) - 1)))
    for i in range(3):
        for j in range(3):
            gg = GAMMA[i] @ GAMMA[j] + GAMMA[j] @ GAMMA[i]
            rr = RHO[i] @ RHO[j] + RHO[j] @ RHO[i]
            gr = GAMMA[i] @ RHO[j] + RHO[j] @ GAMMA[i]
            want = -2 * _I8 if i == j else 0 * _I8
            out.append((f"gamma{i+1} gamma{j+1} anticommutator", worst(gg - want)))
            out.append((f"rho{i+1} rho{j+1} anticommutator", worst(rr - want)))
            out.append((f"gamma{i+1} rho{j+1} anticommute", worst(gr)))
    # Parity consequences of the anticommutation table: an even product of
    # rho's commutes with each gamma, the odd product rho1 rho2 rho3
    # anticommutes with each gamma.
    r12 = RHO[0] @ RHO[1]
    r123 = RHO[0] @ RHO[1] @ RHO[2]
    for i in range(3):
        out.append((f"rho1 rho2 commutes with gamma{i+1}",
                    worst(r12 @ GAMMA[i] - GAMMA[i] @ r12)))
        out.append((f"rho1 rho2 rho3 anticommutes with gamma{i+1}",
                    worst(r123 @ GAMMA[i] + GAMMA[i] @ r123)))
    return out


def ad_matrix(x) -> np.ndarray:
    """The 3x3 matrix of ad(x) = [x, .] on sigma coefficients, column b the
    bracket [x, sigma_b] (algebra.coeff_bracket), batched: (..., 3) ->
    (..., 3, 3); antisymmetric for real x."""
    return np.swapaxes(coeff_bracket(np.asarray(x)[..., None, :], np.eye(3)), -1, -2)


def comp_action(m8: np.ndarray) -> np.ndarray:
    """Lift an 8x8 component-index matrix to the 24-dim space (trivial on su(2))."""
    return np.kron(np.asarray(m8, dtype=float), _I3)


def value_action(x) -> np.ndarray:
    """Lift ad(x), x the sigma coefficients of an su(2) value, to the 24-dim
    space (trivial on components)."""
    return np.kron(np.eye(8), ad_matrix(x))


def q_endo() -> np.ndarray:
    """Q = rho1 rho2 - [sigma3, .] as a real antisymmetric 24x24 matrix."""
    return comp_action(RHO[0] @ RHO[1]) - value_action(_I3[2])


def l_endo() -> np.ndarray:
    """L: psi -> -rho1 rho2 gamma3 (-psi_0 sigma3 + psi_perp); symmetric, L^2 = 1."""
    reflect = np.diag([1.0, 1.0, -1.0])  # flips the sigma3 coefficient
    return -np.kron((RHO[0] @ RHO[1] @ GAMMA[2]).astype(float), reflect)


def y_auto_8() -> np.ndarray:
    """The 8x8 automorphism gamma1 gamma2 gamma3 rho1 rho2 rho3; squares to -1."""
    return (GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ RHO[0] @ RHO[1] @ RHO[2]).astype(float)


def u_endo(t, z1, z2) -> np.ndarray:
    """U = (t + z1 gamma1 + z2 gamma2) / x with x = sqrt(t^2+z1^2+z2^2); orthogonal.

    Batched over the broadcast shape of (t, z1, z2): (...) -> (..., 8, 8).
    """
    t, z1, z2 = (np.asarray(c, dtype=float)[..., None, None] for c in (t, z1, z2))
    x = np.sqrt(t * t + z1 * z1 + z2 * z2)
    if np.any(x == 0.0):
        raise ValueError("U is undefined at the origin")
    return (t * np.eye(8) + z1 * GAMMA[0] + z2 * GAMMA[1]) / x


def symbol(k, L: float = 2 * np.pi) -> np.ndarray:
    """i (gamma . k) 2 pi / L: the Hermitian 8x8 mode symbol.  A stack of
    wavevectors, shape (..., 3), gives a stack of symbols, (..., 8, 8)."""
    w = 2 * np.pi / L
    gk = np.einsum("...i,ijk->...jk", np.asarray(k), np.array(GAMMA))
    return 1j * w * gk.astype(complex)


def fiber_symbol(k, A0=None, a0=None, L: float = 2 * np.pi) -> np.ndarray:
    """M(k; A0, a0) (module docstring), Hermitian for real k, A0 and a0; row
    i of each (3, 3) array holds the sigma coefficients of its i-th
    component, None standing for zero.  k of shape (..., 3) gives
    (..., 24, 24).  Index 3 s + c is slot s, sigma coefficient c, as an
    (8, 3) spinor value flattens."""
    s8 = symbol(k, L)
    m = s8[..., :, None, :, None] * _I3[:, None, :]  # kron(symbol, I3), unflattened
    for mats, x in ((GAMMA, A0), (RHO, a0)):
        if x is not None:
            m = m + np.einsum("iab,icd->acbd", np.array(mats), ad_matrix(x))
    return m.reshape(s8.shape[:-2] + (24, 24))


def nahm_pole_endo(t: float) -> np.ndarray:
    """rho_i [a_i, .] at the Nahm pole a_i = -sigma_i/(2t): the fiber symbol
    at k = 0; symmetric 24x24."""
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    return fiber_symbol(np.zeros(3), a0=-_I3 / (2.0 * t)).real


def nahm_pole_spectrum(t: float) -> tuple[np.ndarray, dict[float, int]]:
    """Eigenvalues of the Nahm-pole endomorphism and their multiplicities.

    The eigenvalue set is {-2/t, -1/t, 1/t, 2/t}; the multiplicities are
    computed, not asserted, and sum to 24.
    """
    evals = np.linalg.eigvalsh(nahm_pole_endo(t))
    mult: dict[float, int] = {}
    for lam in evals:
        key = round(float(lam) * t)  # cluster at the exact values k/t
        mult[key] = mult.get(key, 0) + 1
    return evals, {k / t: v for k, v in sorted(mult.items())}


def antisymmetric_spectrum(m: np.ndarray) -> list[float]:
    """Imaginary parts of the eigenvalues of a real antisymmetric matrix.

    Returned sorted; the real parts are checked to vanish to 1e-10.
    """
    evals = np.linalg.eigvals(np.asarray(m, dtype=float))
    if np.max(np.abs(evals.real)) > 1e-10:
        raise ValueError("matrix is not antisymmetric enough: real eigenvalue parts")
    return sorted(float(v) for v in evals.imag)
