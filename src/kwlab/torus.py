"""su(2) field calculus on a periodic N^3 grid over the flat 3-torus.

Fields store sigma-basis coefficients: a connection triple A and a Higgs
triple a each have shape (3, 3, N, N, N) = (form component, sigma
coefficient, grid).  Real coefficients make every stored value exactly
traceless anti-Hermitian.  The commutator in this representation is
[u, v] = -2 u x v (coefficient cross product) and <u, v> is the plain dot
product of coefficients.

A field may instead have shape (3, 1, N, N, N), A and a alike: the
coefficient of the abelian line span(sigma3).  Every kernel below runs on it
unchanged, because derivatives act on each coefficient separately and comm
returns 0.0 for it, the bracket of that line being zero.  Its results are
the sigma3 slices of the same kernels on the embedded three-coefficient
field, bit for bit: every product in the bracket of two sigma3-valued fields
has a zero factor.

Every derivative takes one path, TorusField.deriv: the field, one slot or
several stacked on its leading axes, is contracted along the grid axis with
a cached, read-only (N, N) periodic differentiation matrix D, one real
matrix product per call (diff_matrix; deriv_matrices is deriv's one cached
lookup).  A complex field is contracted on its float view, where the real
and imaginary parts of each value sit side by side: along x1 and x2 with D,
along x3 with the pair matrix kron(D, I_2).  deriv can also give the
derivative at a slab of x1 rows alone (its rows argument): along x1 that
is D's slab rows times every row of the field, along x2 and x3 the slab's
own rows, so two slabs computed at once (flow.run_flow's two threads) read
the field and write disjoint rows.  The product goes in blocks of at most
SERIAL_GEMM_MNK = 2^18 multiply-adds (serial_matmul), bit for bit the
whole product, because OpenBLAS runs such a gemm on the calling thread: a
larger one wakes OpenBLAS's own worker, which keeps spinning on the second
core after the product, where the flow's second slab runs.  Up to N = 19
every product is whole, and up to N = 32 along x2 and x3; at N = 32 a
complex field's x1 product, (32, 32) by (32, 2048), is 8 blocks, and a
slab's 4.  The scheme picks the matrix:

    fd4       the circulant of the 4th-order centered stencil
              (f_{n-2} - 8 f_{n-1} + 8 f_{n+1} - f_{n+2}) / (12 h), the default;
    spectral  the FFT derivative i k applied to the identity, real part: exact
              on the resolved Fourier modes, with the Nyquist mode dropped.
              Used where an identity has to hold to round-off (e.g. the gauge
              invariance spot check).

Conventions pinned by the directional-derivative identity of the functional:

    cs(A, a)   = int ( <a_k, B_k> - <[a_1, a_2], a_3> )
    B_k        = eps_kij (d_i A_j + 1/2 [A_i, A_j])
    grad cs    = (curl_A a,  B - star(a wedge a)),
    curl_A u_k = eps_kij (d_i u_j + [A_i, u_j]),
    star(a wedge a)_k = 1/2 eps_kij [a_i, a_j].

The gradient is one curvature.  For the complex connection Z = A + i a
(Kapustin-Witten's A + i phi), F_Z = dZ + Z wedge Z has

    Re F_Z = B - star(a wedge a),    Im F_Z = curl_A a,

so curvature computes the gradient with three deriv calls per sigma
coefficient, each differentiating the two form components its axis needs,
and three complex brackets (none on the sigma3 line), and gradient returns
(Im F_Z, Re F_Z).  Since
<a, star(a wedge a)> sums three copies of the triple product
<[a_1, a_2], a_3> (it is cyclic), cs = int ( <a, Re F_Z> + 2 <[a_1, a_2], a_3> ),
which is how cs_functional evaluates it.  b_field, curl_cov and star_wedge
build the same fields from their real definitions; the flow does not call
them, the tests hold curvature to them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import CYCLIC


def comm(u, v, out=None):
    """[u, v] on sigma coefficients: -2 (u x v) along axis 0, by components,
    written to out (an array of the broadcast shape and result type) when
    given.

    Accepts (3,) vectors, complex coefficients and broadcastable shapes.
    When the coefficient axis has length 1 (the sigma3 coefficient of an
    abelian field) the bracket is zero and the result is the scalar 0.0.
    """
    u, v = np.asarray(u), np.asarray(v)
    if len(u) == len(v) == 1:
        return 0.0
    u0, u1, u2 = u
    v0, v1, v2 = v
    if out is None:
        out = np.empty(np.broadcast_shapes(u.shape, v.shape), np.result_type(u, v))
    # out[k, ...] is a view even for (3,) input, where out[k] is a scalar
    for k, (p, q, r, s) in enumerate(((u2, v1, u1, v2), (u0, v2, u2, v0),
                                      (u1, v0, u0, v1))):
        o = out[k, ...]
        np.multiply(p, q, out=o)
        o -= r * s
    out *= 2
    return out


# np.einsum subscripts of the pointwise <u, v> of two (form, coefficient,
# grid) fields: one pass, summing over form and then coefficient at each
# point, in the order np.sum(u * v, axis=(0, 1)) adds them
FORM_COEFF = "fc...,fc...->..."


def dot(u, v):
    """Pointwise <u, v>: sum over the sigma-coefficient axis."""
    return np.sum(u * v, axis=0)


@functools.lru_cache(maxsize=64)
def diff_matrix(scheme: str, N: int, L: float) -> np.ndarray:
    """The (N, N) matrix D with (D f)_n = d f / dx at grid point n, for f
    periodic on N points over [0, L); built on first use and cached.

    Read-only, and stored in Fortran order so that D.T, which the x3
    derivative f @ D.T multiplies from the right, is C-contiguous: with the
    transposed view of a C-ordered D that matmul takes about 2.5x as long
    at N = 16.
    """
    h = L / N
    if scheme == "fd4":
        # row n holds the stencil weights at columns n + s (mod N)
        def shift(s):
            return np.roll(np.eye(N), s, axis=1)

        D = (8.0 * (shift(1) - shift(-1)) - (shift(2) - shift(-2))) / (12.0 * h)
    elif scheme == "spectral":
        k = np.fft.fftfreq(N, d=h) * 2.0 * math.pi
        D = np.fft.ifft(np.fft.fft(np.eye(N), axis=0) * (1j * k)[:, None], axis=0).real
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    D = np.asfortranarray(D)
    D.flags.writeable = False
    return D


@functools.lru_cache(maxsize=64)
def deriv_matrices(scheme: str, N: int, L: float):
    """(D, D.T, kron(D, I_2).T, matmul) for D = diff_matrix(scheme, N, L),
    the one cached lookup of TorusField.deriv: D multiplies from the left
    along x1 and x2; along x3 a real field is multiplied from the right by
    D.T, and the float view of a complex field, whose last axis interleaves
    the real and imaginary parts, by the pair matrix kron(D, I_2).T.  All
    read-only; both transposes are C-contiguous, as the Fortran order of D
    and of the pair matrix makes them.  matmul makes the products:
    np.matmul while none on the grid exceeds SERIAL_GEMM_MNK (the largest,
    x1 on a complex field, has N N 2N^2 multiply-adds: so up to N = 19),
    serial_matmul above."""
    D = diff_matrix(scheme, N, L)
    P = np.asfortranarray(np.kron(D, np.eye(2)))
    P.flags.writeable = False
    return D, D.T, P.T, np.matmul if 2 * N ** 4 <= SERIAL_GEMM_MNK else serial_matmul


def stencil_wavenumber(scheme: str, N: int, L: float) -> float:
    """k~, the scheme's derivative of sin(2 pi x / L) at x = 0, in closed
    form: (8 sin kh - sin 2kh) / (6 h) with k = 2 pi / L for 'fd4'
    (0.99757510 at N = 12, L = 2 pi), and 2 pi / L itself for 'spectral'."""
    return stencil_symbol(scheme, N, L, 1)


def stencil_symbol(scheme: str, N: int, L: float, m) -> np.ndarray | float:
    """The real symbol of diff_matrix(scheme, N, L) at the integer
    wavenumbers m (|m| < N / 2), in closed form: D maps sin(m w x) to
    s cos(m w x) and cos(m w x) to -s sin(m w x), w = 2 pi / L, with

        fd4       s = (8 sin(m w h) - sin(2 m w h)) / (6 h),
        spectral  s = m w (exact below Nyquist).

    Computed from the grid angle 2 pi m / N, so without reading D."""
    h = L / N
    theta = 2.0 * math.pi / N * np.asarray(m, dtype=float)
    if scheme == "fd4":
        s = (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * h)
    elif scheme == "spectral":
        s = theta / h
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return float(s) if s.ndim == 0 else s


# OpenBLAS runs a gemm on the calling thread alone when m n k is at most
# SMP_THRESHOLD_MIN x GEMM_MULTITHREAD_THRESHOLD = 65536 x 4, its defaults;
# above that it may wake its own workers, which then spin on the other core
SERIAL_GEMM_MNK = 1 << 18


def gemm_blocks(fixed: int, size: int) -> int:
    """The fewest blocks, a divisor of size, into which to cut one dimension
    of a gemm whose other two multiply to fixed, so that each block's
    m n k = fixed size / blocks is within SERIAL_GEMM_MNK."""
    nb = -(-fixed * size // SERIAL_GEMM_MNK)
    while size % nb:
        nb += 1
    return nb


def serial_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.matmul(a, b, out) for stacks of real matrices, as gemm calls that
    OpenBLAS runs on the calling thread: a product of more than
    SERIAL_GEMM_MNK multiply-adds goes in blocks of b's columns, or of a's
    rows when b is one matrix shared by the stack (gemm_blocks).  Each
    block is a slice of the whole product, so the result is the same bit
    for bit.  At N = 32 the x1 product of a complex field, (32, 32) by
    (32, 2048), goes in 8 blocks, and half its rows (a slab of
    flow.run_flow) in 4; the x2 and x3 products stay whole up to N = 32."""
    m, k = a.shape[-2:]
    n = b.shape[-1]
    if m * k * n <= SERIAL_GEMM_MNK:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n))
    if b.ndim == 2:  # blocks of a's rows
        nb = gemm_blocks(k * n, m)
        np.matmul(a.reshape(a.shape[:-2] + (nb, -1, k)), b,
                  out=out.reshape(out.shape[:-2] + (nb, -1, n), copy=False))
    else:  # blocks of b's columns
        nb = gemm_blocks(m * k, n)
        np.matmul(a, b.reshape(b.shape[:-1] + (nb, -1)).swapaxes(-3, -2),
                  out=out.reshape(out.shape[:-1] + (nb, -1), copy=False).swapaxes(-3, -2))
    return out


@dataclass
class TorusField:
    """A pair (A, a) of su(2)-valued triples on the N^3 periodic grid, with
    three sigma coefficients or, for abelian data, the sigma3 coefficient
    alone."""

    N: int
    L: float = 2.0 * math.pi
    A: np.ndarray = None
    a: np.ndarray = None
    scheme: str = "fd4"

    def __post_init__(self):
        shape = (3, 3, self.N, self.N, self.N)
        if self.A is None:
            self.A = np.zeros(shape)
        if self.a is None:
            self.a = np.zeros(shape)
        if self.A.shape != self.a.shape or self.A.shape not in (shape, (3, 1) + shape[2:]):
            raise ValueError(f"fields must both have shape {shape}, or (3, 1, N, N, N) "
                             f"for the sigma3 coefficient alone")

    @property
    def h(self) -> float:
        return self.L / self.N

    def copy(self) -> "TorusField":
        return TorusField(self.N, self.L, self.A.copy(), self.a.copy(), self.scheme)

    def deriv(self, f: np.ndarray, i: int, out: np.ndarray | None = None,
              rows: slice | None = None) -> np.ndarray:
        """d f / d x_{i+1} on the last three axes (periodic): f contracted
        with diff_matrix(scheme, N, L) along that axis, one real product,
        written to out (f's shape and dtype) when given.

        f may stack several slots on its leading axes, at any strides, such
        as curvature's Z[1:3, s]; so may out, such as curvature's
        out[2:0:-1, s] (a negative slot stride), as long as each of its
        slots is C-contiguous over the grid: along x1 the product is written
        through a reshaped view of out, which reshape(copy=False) refuses to
        make a copy.  A complex f is differentiated on its float view,
        where the real and imaginary parts of each value sit side by side;
        along x3 that view takes the pair matrix kron(D, I_2) in place of D.

        rows, a slice of the x1 axis, gives the derivative at those x1 rows
        alone: out (or the result) then has the shape of f[..., rows, :, :].
        Along x1 f still supplies every row, and D's rows `rows` multiply
        it; along x2 and x3 only f[..., rows, :, :] is read.

        The product is serial_matmul's, in blocks small enough that OpenBLAS
        runs each on the calling thread; up to N = 19, where no product
        of the grid is that large, it is np.matmul's (deriv_matrices).
        """
        D, DT, PT, matmul = deriv_matrices(self.scheme, self.N, self.L)
        if rows is not None and i:
            f = f[..., rows, :, :]
        pairs = f.dtype.kind == "c"
        v, o, MT = f, out, DT
        if pairs:
            v = (f if f.strides[-1] == f.itemsize else np.ascontiguousarray(f)).view(float)
            o = None if out is None else out.view(float)
            MT = PT
        if i == 2:
            o = matmul(v, MT, out=o)
        elif i == 1:
            o = matmul(D, v, out=o)
        else:  # x1: D (or its rows) times each (x1, x2 x3) matrix
            if rows is not None:
                D = D[rows]
            o = matmul(D, v.reshape(v.shape[:-3] + (self.N, -1)),
                       out=None if o is None else o.reshape(o.shape[:-3] + (len(D), -1),
                                                            copy=False))
            o = o.reshape(v.shape[:-3] + (len(D),) + v.shape[-2:])
        if out is not None:
            return out
        return o.view(complex) if pairs else o

    def integrate(self, density: np.ndarray) -> float:
        """Trapezoid = mean * volume on the periodic grid (the mean as
        np.mean takes it, sum / size, without its call overhead)."""
        return float(density.sum() / density.size * self.L ** 3)


def b_field(F: TorusField) -> np.ndarray:
    """B_k = eps_kij (d_i A_j + 1/2 [A_i, A_j]) = d_i A_j - d_j A_i + [A_i, A_j]
    over the cyclic (k, i, j)."""
    out = np.empty_like(F.A)
    for k, i, j in CYCLIC:
        np.subtract(F.deriv(F.A[j], i), F.deriv(F.A[i], j), out=out[k])
        out[k] += comm(F.A[i], F.A[j])
    return out


def curl_cov(F: TorusField, u: np.ndarray) -> np.ndarray:
    """(curl_A u)_k = eps_kij (d_i u_j + [A_i, u_j]), over the cyclic (k, i, j)."""
    out = np.empty_like(u)
    for k, i, j in CYCLIC:
        np.subtract(F.deriv(u[j], i), F.deriv(u[i], j), out=out[k])
        out[k] += comm(F.A[i], u[j])
        out[k] -= comm(F.A[j], u[i])
    return out


def star_wedge(u: np.ndarray) -> np.ndarray:
    """star(u wedge u)_k = 1/2 eps_kij [u_i, u_j] = [u_i, u_j] over the cyclic
    (k, i, j)."""
    out = np.empty_like(u)
    for k, i, j in CYCLIC:
        out[k] = comm(u[i], u[j])
    return out


def div_cov(F: TorusField, u: np.ndarray) -> np.ndarray:
    """sum_i (d_i u_i + [A_i, u_i]); the constraint scalar for u = a."""
    acc = F.deriv(u[0], 0)
    for i in range(3):
        if i:
            acc += F.deriv(u[i], i)
        Au = comm(F.A[i], u[i])
        if isinstance(Au, np.ndarray):  # 0.0 on the sigma3 line
            acc += Au
    return acc


def cache_aligned(shape: tuple, dtype) -> np.ndarray:
    """An uninitialised C-contiguous array whose data starts on a 64-byte
    (cache line) boundary; numpy's allocator guarantees 16 bytes.  The
    flow's working arrays are made so, for its elementwise passes run
    measurably slower where a field straddles cache lines: a 200-step run
    on flow_n16_abelian's data took 4-8% longer with the heap's placement,
    which shifts with any change to the sources, than with these."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = np.empty(nbytes + 64, np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start:start + nbytes].view(dtype).reshape(shape)


def complex_connection(F: TorusField) -> np.ndarray:
    """Z = A + i a, a new C-contiguous, cache-aligned complex array of F's
    field shape."""
    Z = cache_aligned(F.A.shape, complex)
    Z.real, Z.imag = F.A, F.a
    return Z


def curvature(F: TorusField, Z: np.ndarray | None = None,
              out: np.ndarray | None = None, rows: slice | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """F_Z = dZ + Z wedge Z of the complex connection Z = A + i a:
    (F_Z)_k = d_i Z_j - d_j Z_i + [Z_i, Z_j] over the cyclic (k, i, j).

    Re F_Z = B - star(a wedge a) and Im F_Z = curl_A a.  Z is F's unless
    given, as a complex array of F's field shape on F's grid; the result is
    written to out (C-contiguous, Z's shape) when given.  With rows, a
    slice of the x1 axis, only out[:, :, rows] is computed and written: Z is
    read at every x1 row by the x1 derivatives and at those rows elsewhere,
    so two calls on disjoint rows may run at once (flow.run_flow's slabs).
    scratch, four complex slots of the grid's shape (4, N, N, N), is used
    at those rows, so such calls may share one; a new one when None.

    The derivatives go one sigma coefficient s at a time, one
    TorusField.deriv call per axis, each differentiating the two form
    components that axis needs: Z[1:3, s] along x1, Z[::2, s] along x2,
    Z[0:2, s] along x3.  With d_i the derivative along grid axis i, the x1
    pair (d_0 Z_1, d_0 Z_2), the first term of component 2 and the second
    of component 1, is written straight into the result's slots 2 and 1,
    the other two pairs into a scratch of four slots, and each component is
    then one np.subtract, two of them in place:

        out[2] -= d_1 Z_0,   out[1] = d_2 Z_0 - out[1],
        out[0] = d_1 Z_2 - d_2 Z_1.

    (Once the arrays leave L1, one written as the difference of two others
    costs about twice as much as one updated in place: 18 against 7 us for
    24,576 doubles on a 2-vCPU Xeon VM.)  The three
    brackets then land in the scratch (comm's out) and are added to the
    result; on the sigma3 line (one coefficient) the bracket of each pair
    is zero and they are skipped.
    """
    if Z is None:
        Z = complex_connection(F)
    if out is None:
        out = np.empty_like(Z)
    z, o = (Z, out) if rows is None else (Z[:, :, rows], out[:, :, rows])
    if scratch is None:
        d = np.empty((4,) + z.shape[2:], Z.dtype)
    else:
        d = scratch if rows is None else scratch[:, rows]
    for s in range(Z.shape[1]):
        F.deriv(Z[1:3, s], 0, out=o[2:0:-1, s], rows=rows)
        F.deriv(z[::2, s], 1, out=d[0:2])  # d_1 Z_0, d_1 Z_2
        F.deriv(z[0:2, s], 2, out=d[2:4])  # d_2 Z_0, d_2 Z_1
        o[2, s] -= d[0]
        np.subtract(d[2], o[1, s], out=o[1, s])
        np.subtract(d[1], d[3], out=o[0, s])
    if Z.shape[1] > 1:
        for k, i, j in CYCLIC:
            o[k] += comm(z[i], z[j], d[:3])
    return out


def cs_functional(F: TorusField, FZ: np.ndarray | None = None) -> float:
    """int <a, Re F_Z> + 2 int <[a_1, a_2], a_3>; FZ = curvature(F) unless
    given.

    <a, Re F_Z> = <a, B> - sum_k <a_k, [a_i, a_j]> and each of the three
    cyclic terms is the triple product <[a_1, a_2], a_3>, so this is
    int ( sum_k <a_k, B_k> - <[a_1, a_2], a_3> ).
    """
    if FZ is None:
        FZ = curvature(F)
    cs = F.integrate(np.einsum(FORM_COEFF, F.a, FZ.real))
    a12 = comm(F.a[0], F.a[1])
    if isinstance(a12, np.ndarray):  # 0.0 on the sigma3 line
        cs += 2.0 * F.integrate(dot(a12, F.a[2]))
    return cs


def gradient(F: TorusField) -> tuple[np.ndarray, np.ndarray]:
    """(gA, ga) = (curl_A a, B - star(a wedge a)) = (Im F_Z, Re F_Z)."""
    FZ = curvature(F)
    return FZ.imag, FZ.real


def l2_inner(F: TorusField, u1, v1, u2, v2) -> float:
    """The field-space inner product int (<u1, u2> + <v1, v2>)."""
    return F.integrate(dot(u1, u2).sum(axis=0) + dot(v1, v2).sum(axis=0))


def gradient_check(F: TorusField, direction, s_list=(1e-3, 5e-4, 2.5e-4)) -> dict:
    """Centered-difference directional derivative of cs against the inner
    product with the gradient; returns relative errors per step (O(s^2)) and
    the signed differences fd(s) - exact per step."""
    db, dc = direction
    gA, ga = gradient(F)
    exact = l2_inner(F, gA, ga, db, dc)
    errs = {}
    diffs = {}
    for s in s_list:
        Fp = F.copy()
        Fp.A = F.A + s * db
        Fp.a = F.a + s * dc
        Fm = F.copy()
        Fm.A = F.A - s * db
        Fm.a = F.a - s * dc
        fd = (cs_functional(Fp) - cs_functional(Fm)) / (2 * s)
        diffs[s] = fd - exact
        errs[s] = abs(fd - exact) / max(abs(exact), 1e-14)
    return {"exact": exact, "relative_errors": errs, "differences": diffs}


# ---------------------------------------------------------------------------
# pointwise su(2) exponentials and gauge transformations


def su2_exp_coeffs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(sum v_a sigma_a) = cos|v| + sin|v|/|v| * (v . sigma): returns the
    (cos, sinc*v) data, i.e. quaternion components of the group element."""
    mag = np.sqrt(np.sum(v * v, axis=0))
    small = mag < 1e-12
    safe = np.where(small, 1.0, mag)
    sinc = np.where(small, 1.0, np.sin(safe) / safe)
    return np.cos(mag), sinc[None] * v


def _quat_mul(w1, v1, w2, v2):
    """(w1 + v1.sigma)(w2 + v2.sigma) via sigma_a sigma_b = -delta + sigma-cross.

    sigma_a sigma_b = -delta_ab - eps_abc sigma_c with this basis, and
    -(v1 x v2) = 1/2 [v1, v2].
    """
    w = w1 * w2 - np.sum(v1 * v2, axis=0)
    v = w1[None] * v2 + w2[None] * v1 + 0.5 * comm(v1, v2)
    return w, v


def _quat_conj_action(w, v, u):
    """g u g^{-1} for u = u.sigma, g = w + v.sigma (unit quaternion)."""
    # g u g^- with g^- = w - v.sigma
    wu, vu = _quat_mul(w, v, np.zeros_like(w), u)
    wf, vf = _quat_mul(wu, vu, w, -v)
    return vf


def gauge_transform(F: TorusField, phi: np.ndarray) -> TorusField:
    """Apply g = exp(phi . sigma): A -> g A g^-1 - (dg) g^-1, a -> g a g^-1.

    phi has shape (3, N, N, N).  The derivative of g uses the same scheme as
    the field, acting on the quaternion components.
    """
    out = F.copy()
    w, v = su2_exp_coeffs(phi)
    for comp in range(3):
        out.A[comp] = _quat_conj_action(w, v, F.A[comp])
        out.a[comp] = _quat_conj_action(w, v, F.a[comp])
        # -(d g) g^{-1} = -(dw + dv.sigma)(w - v.sigma): su(2) part
        dw = out.deriv(w, comp)
        dv = out.deriv(v, comp)
        _, dg_part = _quat_mul(dw, dv, w, -v)
        out.A[comp] = out.A[comp] - dg_part
    return out


def random_field(rng: np.random.Generator, N: int, L: float = 2 * math.pi,
                 amplitude: float = 1e-2, k_max: int = 1) -> TorusField:
    """Smooth random (A, a): a few low Fourier modes per component."""
    F = TorusField(N, L)
    xs = np.arange(N) * (L / N)
    X = np.meshgrid(xs, xs, xs, indexing="ij")
    w = 2 * math.pi / L
    for slot in (F.A, F.a):
        for comp in range(3):
            for _ in range(3):
                k = rng.integers(-k_max, k_max + 1, size=3)
                ph = rng.uniform(0, 2 * math.pi)
                cf = rng.normal(scale=amplitude, size=3)
                arg = w * (k[0] * X[0] + k[1] * X[1] + k[2] * X[2]) + ph
                slot[comp] += cf[:, None, None, None] * np.cos(arg)[None]
    return F

