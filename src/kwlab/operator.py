"""The linearized operator on 8-component su(2)-valued fields, three ways.

A field value is an array of shape (..., 8, 3): eight slots ordered
(b1, b2, b3, bt, c1, c2, c3, ct), each holding the sigma coefficients of an
su(2) value (real; complex only in the complexified picture of
``spatial_identification``).  The commutator is the coefficient formula
[u, v] = -2 u x v, the one kernel algebra.coeff_bracket (held here as
comm), the Hermitian product 1/2 trace(u^dag v) is
sum_a conj(u_a) v_a, and the 8x8 Clifford matrices, each a signed
permutation, act on the slot axis as one signed gather each.  The operator
acts as

    D psi = grad_t psi + gamma_i grad_i psi + rho_i [a_i, psi]

and is implemented in three independent forms that must agree pointwise:

    'components'  the slot-by-slot formulas using d_A, the 3D Hodge star
                  and wedge commutators,
    'matrix'      an 8x8 table of symbolic entries (d_t, grad_i, [a_i, .])
                  instantiated per point -- the reference form,
    'clifford'    the gamma/rho contraction above.

The formal L2 adjoint is D^dag = -grad_t + gamma_i grad_i + rho_i [a_i, .].

Also here: the Weitzenbock remainder X of D^dag D (an 8x8 grid of su(2)
entries of shape (..., 8, 8, 3) acting by commutator, rows/columns 3 and 8
identically zero), the radial factorization operator Omega on x3-invariant
sections, the automorphism Y with D Y = -Y D^dag, the quadrature checks of
adjoint duality and of the Pythagoras split of |D psi|^2 (on a periodic box
(t, x), separated in t and x: ``box_quadrature``), and the identification
of the spatial part with the complexified exterior-derivative complex.
The spatial part's symbol at a constant background is ``clifford.fiber_symbol``.

Sections are given by values (``FuncSection``, differenced at a step h) or
are the exact test fields ``TrigSection``, sums of amplitude x Gaussian x
cos(k.x + phase), whose ``jet`` gives the value and its four derivatives
from one evaluation, and whose ``separated`` splits each term with a
t-envelope into its t-factor and its x-part.

A background (``backgrounds``) is read through its two guarded reads, each
of which refuses a point outside its domain: ``fields`` (A, a), once per
``covariant_grads`` (which returns them with the jet, so that its callers
read no second copy), once in each of ``omega_apply`` and
``spatial_identification`` and once per quadrature box, on its x-grid, and
``x_fields``, once per ``x_blocks``.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import CYCLIC, coeff_bracket as comm, coeff_norm
from .clifford import GAMMA, RHO, ad_matrix, q_endo, u_endo, y_auto_8


def _signed_permutation(m) -> tuple[np.ndarray, np.ndarray]:
    """(sources, signs) of an integer matrix with exactly one nonzero entry
    per row, +-1, so that m g = signs * g[sources] exactly on the slot axis;
    signs has shape (rows, 1) to broadcast over the sigma coefficients.  Any
    other matrix raises ValueError."""
    sources, signs = [], []
    for r, row in enumerate(np.asarray(m)):
        nz = np.flatnonzero(row)
        if len(nz) != 1 or abs(row[nz[0]]) != 1:
            raise ValueError(f"row {r} of a Clifford generator is not a signed unit row: {row}")
        sources.append(nz[0])
        signs.append(float(row[nz[0]]))
    return np.array(sources), np.array(signs)[:, None]


# gamma_i and rho_i as signed permutations of the slot axis
_GAMMA_PERMS = tuple(_signed_permutation(g) for g in GAMMA)
_RHO_PERMS = tuple(_signed_permutation(r) for r in RHO)

# The 8x8 symbolic table of the operator: 'dt' means grad_t, ('d', k) means
# grad_k, ('a', k) means [a_k, .]; the integer is the sign.
_D = lambda k, s: ("d", k, s)
_A = lambda k, s: ("a", k, s)
_T = ("dt", 1)
OP_TABLE = [
    [_T, _A(3, 1), _A(2, -1), _D(1, -1), None, _D(3, 1), _D(2, -1), _A(1, 1)],
    [_A(3, -1), _T, _A(1, 1), _D(2, -1), _D(3, -1), None, _D(1, 1), _A(2, 1)],
    [_A(2, 1), _A(1, -1), _T, _D(3, -1), _D(2, 1), _D(1, -1), None, _A(3, 1)],
    [_D(1, 1), _D(2, 1), _D(3, 1), _T, _A(1, 1), _A(2, 1), _A(3, 1), None],
    [None, _D(3, 1), _D(2, -1), _A(1, -1), _T, _A(3, -1), _A(2, 1), _D(1, -1)],
    [_D(3, -1), None, _D(1, 1), _A(2, -1), _A(3, 1), _T, _A(1, -1), _D(2, -1)],
    [_D(2, 1), _D(1, -1), None, _A(3, -1), _A(2, -1), _A(1, 1), _T, _D(3, -1)],
    [_A(1, -1), _A(2, -1), _A(3, -1), None, _D(1, 1), _D(2, 1), _D(3, 1), _T],
]


def spinor_max(v) -> float:
    """The largest Hermitian norm of a slot."""
    return float(np.max(coeff_norm(v)))


class FuncSection:
    """A section given only by its values, a batched callable P (...,4) ->
    (...,8,3); its derivatives are taken by differences."""

    jet = None

    def __init__(self, value):
        self._value = value

    def value(self, P):
        return self._value(np.asarray(P, dtype=float))


def _superpose(w, amps):
    """sum_j w[..., j] amps[j]: one (points x terms) . (terms x 24) contraction,
    reshaped to spinor values (..., 8, 3).

    einsum accumulates the terms in order, so the sum is the per-term loop's
    to the last bit; a BLAS product would round differently, and the
    difference quotients of the operator checks amplify that by 1/h^2.
    """
    return np.einsum("...j,jc->...c", w, amps).reshape(w.shape[:-1] + (8, 3))


class TrigSection:
    """Smooth test fields with exact derivatives: sums over terms of

        amp exp(-|P - center|_E^2 / (2 width^2)) cos(k.x + phase),

    where x = (x1, x2, x3) and |.|_E measures the first `envelope`
    coordinates of P = (t, x1, x2, x3): 3 gives Gaussian blobs in
    (t, x1, x2), 1 a Gaussian t-envelope, 0 a periodic field on the torus of
    side 2 pi (integer k; center () and width unused).

    terms: list of (amp (8,3) real, k (3,), phase, center (envelope,), width);
    each term has its own envelope.  The terms are stacked along a terms
    axis: ``value`` and ``jet`` evaluate the envelopes and phases once, and
    the value, and the four derivatives together, are each one weighted
    superposition of the amplitudes.
    """

    def __init__(self, terms, envelope: int):
        self.terms = [(np.asarray(a, float), np.asarray(k, float), float(ph),
                       np.asarray(c, float), float(w)) for a, k, ph, c, w in terms]
        amps, ks, phases, centers, widths = zip(*self.terms)
        self._amps = np.reshape(amps, (-1, 24))
        self._ks = np.reshape(ks, (-1, 3))
        self._phases = np.array(phases)
        self._centers = np.reshape(centers, (len(centers), envelope))
        self._widths = np.array(widths)
        self.envelope = envelope

    def _envelopes(self, E):
        """Per-term offsets (..., terms, envelope) of the envelope
        coordinates E (..., envelope) and the Gaussians (..., terms)."""
        d = E[..., None, :] - self._centers
        return d, np.exp(-np.sum(d * d, axis=-1) / (2 * self._widths * self._widths))

    def _phases_at(self, x):
        """Per-term phases k.x + phase (..., terms) at spatial points x (..., 3)."""
        return np.einsum("...i,ji->...j", x, self._ks) + self._phases

    def _terms_at(self, P):
        """Per-term envelope offsets (..., terms, envelope), Gaussians and
        phases k.x + phase (..., terms)."""
        P = np.asarray(P, dtype=float)
        return *self._envelopes(P[..., :self.envelope]), self._phases_at(P[..., 1:])

    def value(self, P):
        _, g, arg = self._terms_at(P)
        return _superpose(g * np.cos(arg), self._amps)

    def jet(self, P):
        """(value, grads) with grads[..., mu, 8, 3] = grad_mu psi for
        mu = t, 1, 2, 3, from one evaluation of the envelopes and phases."""
        d, g, arg = self._terms_at(P)
        cos = np.cos(arg)
        e = self.envelope
        w = np.empty(g.shape[:-1] + (4,) + g.shape[-1:])
        w[..., :e, :] = (-np.swapaxes(d, -1, -2) / (self._widths * self._widths)
                         * g[..., None, :] * cos[..., None, :])
        w[..., e:, :] = 0.0
        # the spatial rows add the trig derivative, onto the envelope's
        w[..., 1:, :] += (-g * np.sin(arg))[..., None, :] * self._ks.T
        return _superpose(g * cos, self._amps), _superpose(w, self._amps)

    def separated(self, t, x, h: float | None = None):
        """The terms split into t-factors and x-factors, amp_j g_j(t) c_j(x)
        with c_j = cos(k_j.x + phase_j), for a section whose envelope reads t
        alone (envelope <= 1; a wider one raises ValueError).

        Returns (g, dg, c, dc): g_j and d g_j/dt at the nodes t, each
        (nodes, terms), and c_j with its three spatial derivatives at the
        points x (N, 3), (terms, N) and (terms, N, 3).  The derivatives are
        exact when h is None, otherwise centred differences at step h: of
        g_j in t and of c_j along each x_i.  ``amplitudes`` gives the amp_j.
        """
        if self.envelope > 1:
            raise ValueError(f"an envelope over {self.envelope} coordinates reads x, "
                             "so the terms do not separate in t and x")
        t = np.asarray(t, dtype=float)[:, None]

        def envelopes(s):  # offsets and Gaussians at the nodes s (nodes, 1)
            return self._envelopes(s[:, :self.envelope])

        d, g = envelopes(t)
        arg = self._phases_at(x).T
        if h is None:
            # d has one column, or none for a periodic section (then dg = 0)
            dg = -np.sum(d, axis=-1) / (self._widths * self._widths) * g
            dc = -np.sin(arg)[..., None] * self._ks[:, None, :]
        else:
            dg = (envelopes(t + h)[1] - envelopes(t - h)[1]) / (2 * h)
            dc = _centred(np.cos(self._phases_at(_neighbours(x, h))), h).T
        return g, dg, np.cos(arg), dc

    @property
    def amplitudes(self):
        """The terms' amplitudes amp_j, (terms, 8, 3)."""
        return self._amps.reshape(-1, 8, 3)


def random_section(rng: np.random.Generator, center=(1.0, 0.0, 0.0),
                   spread=0.8) -> TrigSection:
    """Three Gaussian blobs in (t, x1, x2) around center, each times a
    circle harmonic cos(n x3 + phase) with n in {0, 1, 2}."""
    terms = []
    for _ in range(3):
        amp = rng.normal(size=(8, 3))
        c = np.asarray(center, float) + rng.uniform(-spread, spread, size=3)
        s = rng.uniform(0.6, 1.4)
        n = int(rng.integers(0, 3))
        terms.append((amp, (0, 0, n), rng.uniform(0, 2 * math.pi), c, s))
    return TrigSection(terms, envelope=3)


def random_torus_section(rng: np.random.Generator, k_max: int = 2, n_terms: int = 4,
                         t_center=None, t_width=0.5) -> TrigSection:
    """Periodic terms with integer |k|_inf <= k_max, all under one Gaussian
    t-envelope (t_center, t_width), or none when t_center is None."""
    center = () if t_center is None else (t_center,)
    terms = []
    for _ in range(n_terms):
        amp = rng.normal(size=(8, 3))
        k = rng.integers(-k_max, k_max + 1, size=3)
        terms.append((amp, k, rng.uniform(0, 2 * math.pi), center, t_width))
    return TrigSection(terms, envelope=len(center))


def covariant_grads(bg, sec, P, h: float | None):
    """(value, grads, A, a) with grads[..., mu, 8, 3] = grad_mu psi for
    mu = t,1,2,3, and the background's (A, a) at P.

    The operator's one read of a section and of the background:
    ``bg.fields(P)`` comes first, so a point outside the background's domain
    is refused before the section is evaluated.  The section's jet (value
    and exact derivatives from one evaluation) is used when h is None;
    otherwise the values and second-order centered differences at step h.
    The connection commutator is then added to the spatial derivatives
    (``_add_connection``).
    """
    P = np.asarray(P, dtype=float)
    A, a = bg.fields(P)
    if h is None:
        if sec.jet is None:
            raise ValueError("need a step h for a section without exact derivatives")
        val, grads = sec.jet(P)
    else:
        val = sec.value(P)
        grads = _centred(sec.value(_neighbours(P, h)), h)
    return val, _add_connection(A, val, grads), A, a


def _neighbours(P, h: float):
    """The points P + h e_mu, P - h e_mu for each coordinate mu of P (eight
    for P = (t, x1, x2, x3)), stacked in that order on a new leading axis, as
    ``_centred`` reads them."""
    Q = np.repeat(P[None], 2 * P.shape[-1], axis=0)
    for mu in range(P.shape[-1]):
        Q[2 * mu, ..., mu] += h
        Q[2 * mu + 1, ..., mu] -= h
    return Q


def _centred(stack, h: float):
    """Centred differences of values at ``_neighbours``, direction on axis -3."""
    return np.stack([(stack[2 * mu] - stack[2 * mu + 1]) / (2 * h)
                     for mu in range(len(stack) // 2)], axis=-3)


def _add_connection(A, val, grads):
    """Add the connection commutator [A_i, psi] to the three spatial
    derivatives in grads, in place (skipped where the connection vanishes
    identically, as it only adds zeros); returns grads."""
    if np.any(A):
        grads[..., 1:, :, :] += comm(A[..., :, None, :], val[..., None, :, :])
    return grads


def _assemble_components(val, grads, a):
    """Slot formulas: the 1-form/function split with d_A, star and wedges."""
    b = val[..., 0:3, :]
    bt = val[..., 3, :]
    c = val[..., 4:7, :]
    ct = val[..., 7, :]
    g = grads  # (..., mu, slot, 3)
    out = np.empty_like(val, dtype=grads.dtype)
    for k, i0, j0 in CYCLIC:
        pk = g[..., 0, k, :] - g[..., 1 + k, 3, :] + comm(a[..., k, :], ct)
        qk = g[..., 0, 4 + k, :] - g[..., 1 + k, 7, :] - comm(a[..., k, :], bt)
        # the two nonzero eps_kij: +1 at (i0, j0), -1 at (j0, i0)
        for i, j, e in ((i0, j0, 1.0), (j0, i0, -1.0)):
            pk = pk - e * g[..., 1 + i, 4 + j, :] - e * comm(b[..., i, :], a[..., j, :])
            qk = qk - e * g[..., 1 + i, j, :] + e * comm(c[..., i, :], a[..., j, :])
        out[..., k, :] = pk
        out[..., 4 + k, :] = qk
    pt = g[..., 0, 3, :]
    qt = g[..., 0, 7, :]
    for i in range(3):
        pt = pt + g[..., 1 + i, i, :] + comm(a[..., i, :], c[..., i, :])
        qt = qt + g[..., 1 + i, 4 + i, :] - comm(a[..., i, :], b[..., i, :])
    out[..., 3, :] = pt
    out[..., 7, :] = qt
    return out


def _assemble_matrix(val, grads, a):
    """Instantiate the symbolic 8x8 table entry by entry."""
    out = np.empty_like(val, dtype=grads.dtype)
    for r in range(8):
        acc = 0.0
        for col in range(8):
            entry = OP_TABLE[r][col]
            if entry is None:
                continue
            if entry[0] == "dt":
                acc = acc + grads[..., 0, col, :]
            elif entry[0] == "d":
                _, k, s = entry
                acc = acc + s * grads[..., k, col, :]
            else:
                _, k, s = entry
                acc = acc + s * comm(a[..., k - 1, :], val[..., col, :])
        out[..., r, :] = acc
    return out


def _assemble_clifford(val, grads, a, dt_sign: float = 1.0, skip_gamma3: bool = False):
    """The gamma/rho contraction on the (..., 8, 3) values.

    gamma_i and rho_i are exact signed permutations of the slot axis
    (``_GAMMA_PERMS`` and ``_RHO_PERMS``, derived from ``clifford.GAMMA`` and
    ``clifford.RHO``), so each term is one signed gather of the slots,
    ``np.take`` along the slot axis, then ``*= signs``, then ``+=``, added in
    the order dt_sign grad_t + gamma_1 grad_1 + gamma_2 grad_2 +
    gamma_3 grad_3, then the rho terms; the result equals the 8x8 matrix
    products bit for bit.  The rho terms are skipped where the Higgs field
    vanishes identically.
    """
    return _clifford_sums(val, grads, a, (dt_sign,), skip_gamma3)[0]


def _clifford_sums(val, grads, a, dt_signs, skip_gamma3: bool = False) -> list:
    """``_assemble_clifford`` at each of dt_signs, from one set of signed
    gathers: each gathered term is added to every sum in turn."""
    outs = [dt_sign * grads[..., 0, :, :] for dt_sign in dt_signs]
    terms = [(grads[..., 1 + i, :, :], _GAMMA_PERMS[i]) for i in range(2 if skip_gamma3 else 3)]
    if np.any(a):
        terms += [(comm(a[..., i, None, :], val), _RHO_PERMS[i]) for i in range(3)]
    for g, (sources, signs) in terms:
        term = np.take(g, sources, axis=-2)
        term *= signs
        for out in outs:
            out += term
    return outs


# the three depictions of D, each assembling D psi from one covariant jet
DEPICTIONS = {"components": _assemble_components, "matrix": _assemble_matrix,
              "clifford": _assemble_clifford}


def apply_D(bg, sec, P, h: float | None = 1e-5):
    """D psi at P, the Clifford contraction; the suite's three_depictions
    row assembles one covariant jet through all of ``DEPICTIONS``."""
    val, grads, _, a = covariant_grads(bg, sec, P, h)
    return _assemble_clifford(val, grads, a)


def apply_D_dagger(bg, sec, P, h: float | None = 1e-5):
    """The formal L2 adjoint: -grad_t + gamma_i grad_i + rho_i [a_i, .]."""
    val, grads, _, a = covariant_grads(bg, sec, P, h)
    return _assemble_clifford(val, grads, a, dt_sign=-1.0)


# ---------------------------------------------------------------------------
# Weitzenbock remainder


def x_blocks(bg, P) -> np.ndarray:
    """The remainder of D^dag D as an 8x8 grid of su(2) entries, (...,8,8,3).

    Entry (r, s) acts on slot s by commutator and contributes to output
    slot r.  Rows/columns 3 and 8 (0-indexed 2 and 7) vanish identically.
    Valid for x3-invariant flat backgrounds.  Reads the background once,
    through its guarded ``x_fields``.
    """
    a, e1, e2, b3, dca = bg.x_fields(P)
    c12 = comm(a[..., 0, :], a[..., 1, :])
    c23 = comm(a[..., 1, :], a[..., 2, :])
    c31 = comm(a[..., 2, :], a[..., 0, :])
    A11 = dca[..., 0, 0, :]
    A12 = dca[..., 0, 1, :]
    A21 = dca[..., 1, 0, :]
    A22 = dca[..., 1, 1, :]
    # First-derivative blocks: the operator algebra gives
    # sum_{ij} gamma_i rho_j ad(grad_i a_j), whose (b1,b2)x(c1,c2) entries are
    # the symmetrized combinations below (equal to 2 grad_i a_j on
    # x3-invariant solutions, where A11 = -A22 and A12 = A21).  Extracted on
    # basis spinors, the remainder confirms these and every other entry.
    S11 = A11 - A22
    S12 = A12 + A21
    X = np.zeros(a.shape[:-2] + (8, 8, 3), dtype=np.result_type(e1, dca, a))
    X[..., 0, 1, :] = -2 * b3
    X[..., 0, 3, :] = 2 * e1
    X[..., 0, 4, :] = -S11
    X[..., 0, 5, :] = -S12
    X[..., 0, 6, :] = 2 * e2
    X[..., 1, 0, :] = 2 * b3
    X[..., 1, 3, :] = 2 * e2
    X[..., 1, 4, :] = -S12
    X[..., 1, 5, :] = S11
    X[..., 1, 6, :] = -2 * e1
    X[..., 3, 0, :] = -2 * e1
    X[..., 3, 1, :] = -2 * e2
    X[..., 3, 4, :] = 2 * c23
    X[..., 3, 5, :] = 2 * c31
    X[..., 3, 6, :] = 2 * c12 - 2 * b3
    X[..., 4, 0, :] = S11
    X[..., 4, 1, :] = S12
    X[..., 4, 3, :] = -2 * c23
    X[..., 4, 5, :] = -2 * c12
    X[..., 4, 6, :] = 2 * c31
    X[..., 5, 0, :] = S12
    X[..., 5, 1, :] = -S11
    X[..., 5, 3, :] = -2 * c31
    X[..., 5, 4, :] = 2 * c12
    X[..., 5, 6, :] = -2 * c23
    X[..., 6, 0, :] = -2 * e2
    X[..., 6, 1, :] = 2 * e1
    X[..., 6, 3, :] = -2 * c12 + 2 * b3
    X[..., 6, 4, :] = -2 * c31
    X[..., 6, 5, :] = 2 * c23
    return X


def apply_x(X, val):
    """Apply an x_blocks grid to a spinor value: out_r = sum_s [X_rs, val_s]."""
    return np.sum(comm(X, val[..., None, :, :]), axis=-2)


def x_matrix24(X) -> np.ndarray:
    """The remainder at a single point, its x_blocks grid X, as a real 24x24
    matrix (sigma basis): block (r, s) is the ad matrix of X_rs."""
    return ad_matrix(X).transpose(0, 2, 1, 3).reshape(24, 24)


# the 24 basis spinors e_(s, c), 1 in slot s and sigma coefficient c
_BASIS24 = np.eye(24).reshape(24, 8, 3)


def remainder_matrix24(bg, p) -> np.ndarray:
    """The remainder at a single point as a real 24x24 matrix, extracted from
    D^dag D by differencing (step 5e-4): column (s, c) holds the coefficients
    of bochner_check's remainder on the basis spinor e_(s, c).

    The 24 basis spinors ride one batch axis: the point is repeated 24
    times, and the constant section returns basis spinor j at the j-th copy
    of every query, so one bochner_remainder stencil pass extracts every
    column, and no X is assembled.
    """
    P = np.broadcast_to(np.asarray(p, dtype=float), (24, 4))
    basis = FuncSection(lambda Q: np.broadcast_to(_BASIS24, Q.shape[:-1] + (8, 3)))
    return bochner_remainder(bg, basis, P, 5e-4)[1].reshape(24, 24).T


# the largest blockwise mismatch of the extracted and assembled remainders,
# relative to the largest block norm, that bochner_block_report lets pass
BLOCK_TOL = 1e-3


def bochner_block_report(bg, p, X) -> dict:
    """Diff the remainder extracted on the 24 basis spinors
    (``remainder_matrix24``, one batched stencil pass) blockwise against
    the assembled grid X = x_blocks(bg, p) (as ``x_matrix24``).

    Any block whose mismatch exceeds BLOCK_TOL (relative to the largest block
    norm of either matrix, so the test keeps its meaning at any field scale)
    is flagged rather than silently absorbed; healthy backgrounds produce an
    empty flag list.
    """
    p = np.asarray(p, dtype=float)
    m_true = remainder_matrix24(bg, p)
    m_asm = x_matrix24(X)

    def blocks(m):
        return m.reshape(8, 3, 8, 3).transpose(0, 2, 1, 3)

    bt, ba = blocks(m_true), blocks(m_asm)
    diffs = np.linalg.norm(bt - ba, axis=(-2, -1))
    scale = max(float(np.max(np.linalg.norm(bt, axis=(-2, -1)))),
                float(np.max(np.linalg.norm(ba, axis=(-2, -1)))))
    rel = diffs / scale if scale > 0 else diffs
    flagged = [{"block": (int(r) + 1, int(s) + 1), "relative_diff": float(rel[r, s])}
               for r, s in zip(*np.nonzero(rel > BLOCK_TOL))]
    return {"flagged_blocks": flagged, "worst_block_diff": float(np.max(rel))}


def bochner_remainder(bg, sec, p, h: float):
    """(psi, remainder) at p: psi's value and
    D^dag D psi - (grad^dag grad psi + sum_i [a_i, [psi, a_i]]), the
    remainder that X assembles, from one stencil pass.

    psi's covariant gradients at p and at its eight neighbours p +- h e_mu
    give D psi at all nine points, hence D^dag D psi, and the covariant
    Hessian, whose trace is -grad^dag grad psi.
    """
    p = np.asarray(p, dtype=float)
    q = _neighbours(p, h)
    val, grads, A, a = covariant_grads(bg, sec, p, h)
    qval, qgrads, _, qa = covariant_grads(bg, sec, q, h)
    dpsi = _assemble_clifford(val, grads, a)
    ddpsi = _add_connection(A, dpsi, _centred(_assemble_clifford(qval, qgrads, qa), h))
    ddag_d = _assemble_clifford(dpsi, ddpsi, a, dt_sign=-1.0)
    hess = _add_connection(A[..., None, :, :], grads, _centred(qgrads, h))
    lap = sum(hess[..., mu, mu, :, :] for mu in range(4))
    commterm = sum(comm(a[..., i, None, :], comm(val, a[..., i, None, :])) for i in range(3))
    return val, ddag_d + lap - commterm


def bochner_compare(val, remainder, X) -> dict:
    """bochner_check's dict for a ``bochner_remainder`` (val, remainder) and
    the assembled grid X at its point."""
    xpsi = apply_x(X, val)
    resid = spinor_max(remainder - xpsi)
    scale = max(spinor_max(xpsi), spinor_max(remainder), 1e-30)
    return {"residual": resid, "scale": scale, "remainder": remainder, "x_psi": xpsi}


def bochner_check(bg, sec, p, h: float) -> dict:
    """Compare D^dag D - (grad^dag grad + sum_i [a_i, [., a_i]]) with the
    assembled remainder at a point; returns the residual and both sides.

    The stencil pass of ``bochner_remainder`` against ``x_blocks(bg, p)``;
    a caller that already holds X at p (the operator suite) composes
    ``bochner_compare`` with ``bochner_remainder`` itself.
    """
    return bochner_compare(*bochner_remainder(bg, sec, p, h), x_blocks(bg, p))


# ---------------------------------------------------------------------------
# Radial factorization and the algebraic automorphism


def omega_apply(bg, sec, p, h: float) -> np.ndarray:
    """Omega xi = x (Xi(U^{-1} xi) - grad_x xi) at p, for x3-invariant xi,
    where U = (t + z1 gamma_1 + z2 gamma_2)/x and Xi is D without its
    gamma_3 grad_3 term (it acts within x3-invariant sections).

    One stencil: xi is read at p and at its eight neighbours p +- h e_mu,
    U^{-1} = U^T is applied at all nine points, and both covariant gradients
    are centred differences of those values.  As it reads xi without
    ``covariant_grads``, it reads the background's guarded ``fields`` at p
    itself, before xi.

    Omega commutes with both grad_x and multiplication by x, so it is
    invariant under the coordinate rescaling (t, z) -> (lambda t, lambda z).
    """
    p = np.asarray(p, dtype=float)
    A, a = bg.fields(p)
    q = _neighbours(p, h)
    val, qval = sec.value(p), sec.value(q)
    uval, uqval = (np.swapaxes(u_endo(Q[..., 0], Q[..., 1], Q[..., 2]), -1, -2) @ v
                   for Q, v in ((p, val), (q, qval)))
    xi_u = _assemble_clifford(uval, _add_connection(A, uval, _centred(uqval, h)), a,
                              skip_gamma3=True)
    g = _add_connection(A, val, _centred(qval, h))
    x = math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
    nabla_x = (p[0] * g[0] + p[1] * g[1] + p[2] * g[2]) / x
    return x * (xi_u - nabla_x)


def apply_q_endo(val):
    """Q = rho1 rho2 - [sigma3, .] acting on a spinor value: the 24x24
    ``clifford.q_endo`` on its (..., 24) flattening."""
    val = np.asarray(val)
    flat = val.reshape(val.shape[:-2] + (24,))
    return (flat @ q_endo().T).reshape(val.shape)


def y_apply(val):
    return y_auto_8() @ val


def y_intertwine(bg, sec, p, h: float) -> float:
    """|D(Y psi) + Y(D^dag psi)| at p (should vanish identically)."""
    ysec = FuncSection(lambda Q: y_apply(sec.value(Q)))
    lhs = apply_D(bg, ysec, p, h)
    rhs = y_apply(apply_D_dagger(bg, sec, p, h))
    return spinor_max(lhs + rhs)


# ---------------------------------------------------------------------------
# Quadrature checks on periodic boxes


def _box_grid(t_range, nt, nx):
    """Trapezoid nodes t and weights wt, the periodic nx^3 grid x (nx^3, 3)
    on the torus of side 2 pi, and its cell volume."""
    L = 2 * math.pi
    t = np.linspace(t_range[0], t_range[1], nt)
    xs = np.arange(nx) * (L / nx)
    x = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    wt = np.full(nt, t_range[1] - t_range[0]) / (nt - 1)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    return t, wt, x, (L / nx) ** 3


def _box_background(bg, t, x):
    """The background's (A, a) on the x-grid, from one guarded ``fields``
    read at the first and the last t-node; a background that reads
    differently there does not separate, and raises ValueError."""
    ends = np.concatenate([np.broadcast_to(t[[0, -1], None, None], (2, len(x), 1)),
                           np.broadcast_to(x, (2,) + x.shape)], axis=-1)
    A, a = bg.fields(ends)
    if not (np.array_equal(A[0], A[1]) and np.array_equal(a[0], a[1])):
        raise ValueError("the box needs a t-independent background; this one reads "
                         "differently at the first and the last t-node")
    return A[0], a[0]


def _box_pieces(sec, c, dc, A):
    """The x-parts X_j = amp_j c_j of a block of sec's terms
    amp_j g_j(t) c_j(x), from its x-factors c and dc
    (``TrigSection.separated``), and the jets (val, grads) of their two
    pieces per term, stacked on a leading axis of 2 terms: the t-pieces
    (t-row X_j, coefficient g'_j), then the spatial pieces (value X_j, its
    spatial jet with the connection A added, coefficient g_j)."""
    amps = sec.amplitudes[:, None]
    n = len(amps)
    val = np.zeros((2 * n,) + c.shape[1:] + (8, 3))
    X = val[n:]
    X[...] = c[..., None, None] * amps
    # held direction-major, so that each direction the gathers read is one
    # contiguous block
    grads = np.zeros((4,) + val.shape)
    grads[0, :n] = X
    grads[1:, n:] = np.moveaxis(dc, -1, 0)[..., None, None] * amps
    grads = np.moveaxis(grads, 0, -3)
    _add_connection(A, X, grads[n:])
    return X, val, grads


def _gram(u, v):
    """G_ab = sum_x <u_a, v_b>, the Gram matrix of two stacks of real basis
    fields (terms, points, 8, 3) over their points.

    The pairings at each point (24 products each) are one batched matmul,
    and their sum over the points one pairwise ``np.sum`` along a contiguous
    axis: about 1e-16 relative, where one BLAS product over the flattened
    fields (12288 products per entry on an 8^3 grid) reads up to 8e-15.
    """
    n = u.shape[1]
    per_point = np.matmul(u.reshape(len(u), n, -1).transpose(1, 0, 2),
                          v.reshape(len(v), n, -1).transpose(1, 2, 0))
    return np.ascontiguousarray(np.moveaxis(per_point, 0, -1)).sum(axis=-1)


# grid points per block of the box's x-grid: one block's pieces (0.7 MB for
# 3 terms) stay in cache, and the box holds one block's at a time (a box of
# the suite peaks at 2.6 MB under tracemalloc, the slice loop at 4.0 MB)
_BOX_BLOCK = 128


def box_quadrature(bg, psi, xi, t_range=(0.5, 3.5), nt=40, nx=8,
                   h: float | None = None) -> dict:
    """Both quadrature checks of the split D = grad_t + L, D^dag = -grad_t + L,
    over a periodic box: {"duality_gap": float, "pythagoras": {"lhs", "rhs",
    "rel_gap"}}, as ``duality_gap(bg, psi, xi, ...)`` and
    ``pythagoras_gap(bg, psi, ...)`` return them.

    The box separates in t and x: psi and xi are ``TrigSection``s whose
    envelopes read t alone, and the background reads the same at every
    t-node (its ``fields`` are read once, on the x-grid; ``_box_background``
    refuses one that differs at the first and the last node).  Each term
    amp_j g_j(t) c_j(x) is evaluated once per box (``TrigSection.separated``),
    its t-factor on the nt nodes and its x-factor on the nx^3 grid.  One
    block of ``_BOX_BLOCK`` grid points at a time, its x-part X_j = amp_j c_j
    is split into a t-piece and a spatial piece (``_box_pieces``), D psi
    and L psi (dt_sign 0) of every piece come from one set of signed
    gathers (``_clifford_sums``), D^dag xi from one ``_assemble_clifford``,
    and the block adds to the Gram matrices (``_gram``) of the basis fields
    that the six integrals pair: <D psi, xi>, <psi, D^dag xi>, |D psi|^2,
    |xi|^2, |grad_t psi|^2 and |L psi|^2.  Each integral is then the form
    vol_x sum_t wt[t] k(t)^T G k'(t) of its Gram matrix G (exact trapezoid
    in the periodic directions) with the pieces' coefficients k (trapezoid
    in t).  The derivatives are exact when h is None, otherwise centred
    differences at step h.
    """
    t, wt, x, vol_x = _box_grid(t_range, nt, nx)
    A, a = _box_background(bg, t, x)
    for sec in (psi, xi):
        if not isinstance(sec, TrigSection):
            raise ValueError(f"the box separates TrigSection terms in t and x, not a "
                             f"{type(sec).__name__}")
    gpsi, dgpsi, cpsi, dcpsi = psi.separated(t, x, h)
    gxi, dgxi, cxi, dcxi = xi.separated(t, x, h)
    blocks = []
    for start in range(0, len(x), _BOX_BLOCK):
        b = slice(start, start + _BOX_BLOCK)
        xpsi, *jet = _box_pieces(psi, cpsi[:, b], dcpsi[:, b], A[b])
        dpsi, lpsi = _clifford_sums(*jet, a[b], (1.0, 0.0))
        xxi, *jet = _box_pieces(xi, cxi[:, b], dcxi[:, b], A[b])
        ddagxi = _assemble_clifford(*jet, a[b], dt_sign=-1.0)
        blocks.append([_gram(u, v) for u, v in (
            (dpsi, xxi), (xpsi, ddagxi), (dpsi, dpsi), (xxi, xxi), (xpsi, xpsi), (lpsi, lpsi))])
    # the pieces' coefficients (g', g); grad_t psi's on the x-parts are g'
    kpsi, kxi = np.concatenate([dgpsi, gpsi], axis=-1), np.concatenate([dgxi, gxi], axis=-1)
    i1, i2, dpsi_sq, xi_sq, tpsi_sq, lpsi_sq = (
        vol_x * float(np.sum((wt[:, None] * cu) @ sum(G) * cv))
        for cu, G, cv in zip((kpsi, gpsi, kpsi, gxi, dgpsi, kpsi), zip(*blocks),
                             (gxi, kxi, kpsi, gxi, dgpsi, kpsi)))
    scale = math.sqrt(dpsi_sq * xi_sq)
    rhs = tpsi_sq + lpsi_sq
    return {"duality_gap": abs(i1 - i2) / scale if scale > 0 else abs(i1 - i2),
            "pythagoras": {"lhs": dpsi_sq, "rhs": rhs,
                           "rel_gap": abs(dpsi_sq - rhs) / max(abs(dpsi_sq), 1e-30)}}


def duality_gap(bg, psi, xi, t_range=(0.5, 3.5), nt=40, nx=8,
                h: float | None = None) -> float:
    """| int <D psi, xi> - int <psi, D^dag xi> | over a periodic box, relative
    to its Cauchy-Schwarz bound sqrt(int |D psi|^2 int |xi|^2), read from
    ``box_quadrature`` (so psi, xi and bg must separate in t and x there).
    operator_suite calls box_quadrature; this name is kept for tests and for
    the benchmark's span tracer.

    psi and xi should decay at both t endpoints (Gaussian t-envelopes well
    inside the range).  The check only has teeth when int <D psi, xi> is not
    small against that bound for a wrong adjoint: give xi the wavevectors of
    psi and a different t-envelope, so the grad_t terms do not integrate to
    zero.
    """
    return box_quadrature(bg, psi, xi, t_range, nt, nx, h)["duality_gap"]


def pythagoras_gap(bg, psi, t_range=(0.5, 3.5), nt=40, nx=8) -> dict:
    """For t-independent backgrounds: int |D psi|^2 against
    int |grad_t psi|^2 + int |L psi|^2 (the cross term 2 int <grad_t psi,
    L psi> drops by symmetry of the spatial part, for psi decaying at both t
    ends); returns both sides and the relative gap, read from
    ``box_quadrature`` with psi in xi's place.  operator_suite calls
    box_quadrature; this name is kept for tests and for the benchmark's span
    tracer.  The whole box runs, so it also refuses what does not separate
    and assembles a D^dag psi that it does not read.
    """
    return box_quadrature(bg, psi, psi, t_range, nt, nx)["pythagoras"]


# ---------------------------------------------------------------------------
# Identification of the spatial part with the complexified complex


def spatial_identification(bg, sec, P) -> float:
    """Residual of the identification of the spatial part of the operator
    with -(star d_C eta + d_{C*} v, d_C^dag eta) in the complexified picture,
    where eta = b + i c, v = ct + i bt, C = A + i a and C* = A - i a.

    The section must provide exact derivatives (trigonometric fields) so the
    comparison is free of differencing error.
    """
    P = np.asarray(P, dtype=float)
    A, a = bg.fields(P)
    if sec.jet is None:
        raise ValueError("spatial identification wants exact derivatives")
    val, d = sec.jet(P)
    out = _assemble_clifford(val, _add_connection(A, val, d.copy()), a, dt_sign=0.0)
    # complexified data and their plain spatial derivatives (mu, comp, coeff)
    eta = val[..., 0:3, :] + 1j * val[..., 4:7, :]
    v = val[..., 7, :] + 1j * val[..., 3, :]
    d_eta = d[..., 1:, 0:3, :] + 1j * d[..., 1:, 4:7, :]
    d_v = d[..., 1:, 7, :] + 1j * d[..., 1:, 3, :]
    Cp = A + 1j * a  # connection C
    Cm = A - 1j * a  # connection C*
    # star d_C eta: (d_C eta)_{ij} = grad_i eta_j - grad_j eta_i
    grad_eta = d_eta + comm(Cp[..., :, None, :], eta[..., None, :, :])  # (mu, j, coeff)
    star_d_eta = np.empty(P.shape[:-1] + (3, 3), dtype=complex)
    for k, i, j in CYCLIC:
        star_d_eta[..., k, :] = grad_eta[..., i, j, :] - grad_eta[..., j, i, :]
    d_cstar_v = d_v + comm(Cm, v[..., None, :])
    # d_C^dag eta = -sum_i grad^{C*}_i eta_i
    ddag = 0.0
    for i in range(3):
        ddag = ddag - (d_eta[..., i, i, :] + comm(Cm[..., i, :], eta[..., i, :]))
    # assemble the complexified image of the spatial operator output
    form1 = out[..., 4:7, :] + 1j * out[..., 0:3, :]   # q + i p
    form0 = out[..., 3, :] + 1j * out[..., 7, :]       # pt + i qt
    want1 = -(star_d_eta + d_cstar_v)
    want0 = -ddag
    r1 = float(np.max(np.abs(form1 - want1)))
    r0 = float(np.max(np.abs(form0 - want0)))
    return max(r1, r0)
