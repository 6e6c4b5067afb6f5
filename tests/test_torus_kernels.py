"""The torus kernels against plain reference formulas.

The references are the direct definitions: the commutator through
np.cross, the fd4 stencil through four np.roll copies, the spectral
derivative through np.fft, and the field operators as sums over every entry
of the Levi-Civita symbol.  The curvature of Z = A + i a is held against
the real kernels b_field, curl_cov and star_wedge, which those sums check,
and bit for bit against curvature_six_products, the loop of one
derivative per form component and axis that its slot-stacked derivatives
replace.
"""

import math

import numpy as np
import pytest

from kwlab import torus
from kwlab.algebra import CYCLIC, EPS
from kwlab.torus import (
    TorusField, b_field, comm, complex_connection, cs_functional, curl_cov, curvature,
    diff_matrix, div_cov, dot, gradient, random_field, star_wedge,
)


def _ref_comm(u, v):
    return -2.0 * np.cross(u, v, axis=0)


def _ref_deriv(F, f, i):
    ax = f.ndim - 3 + i
    if F.scheme == "spectral":
        k = np.fft.fftfreq(F.N, d=F.h) * 2.0 * math.pi
        if F.N % 2 == 0:
            k[F.N // 2] = 0.0  # the Nyquist mode has no real derivative
        shape = [1] * f.ndim
        shape[ax] = F.N
        out = np.fft.ifft(np.fft.fft(f, axis=ax) * (1j * k.reshape(shape)), axis=ax)
        return out if np.iscomplexobj(f) else out.real
    return (
        -np.roll(f, -2, axis=ax)
        + 8.0 * np.roll(f, -1, axis=ax)
        - 8.0 * np.roll(f, 1, axis=ax)
        + np.roll(f, 2, axis=ax)
    ) / (12.0 * F.h)


# Sums over all 27 EPS entries; `sign` multiplies every bracket term, so
# sign=-1 is the wrong convention the comparisons must catch.


def _ref_b_field(F, sign=1.0):
    out = np.zeros_like(F.A)
    for k in range(3):
        acc = 0.0
        for i in range(3):
            for j in range(3):
                e = EPS[k, i, j]
                if e == 0.0:
                    continue
                acc = acc + e * (_ref_deriv(F, F.A[j], i)
                                 + sign * 0.5 * _ref_comm(F.A[i], F.A[j]))
        out[k] = acc
    return out


def _ref_curl_cov(F, u, sign=1.0):
    out = np.zeros_like(u)
    for k in range(3):
        acc = 0.0
        for i in range(3):
            for j in range(3):
                e = EPS[k, i, j]
                if e == 0.0:
                    continue
                acc = acc + e * (_ref_deriv(F, u[j], i) + sign * _ref_comm(F.A[i], u[j]))
        out[k] = acc
    return out


def _ref_star_wedge(u, v, sign=1.0):
    out = np.zeros_like(u)
    for k in range(3):
        acc = 0.0
        for i in range(3):
            for j in range(3):
                e = EPS[k, i, j]
                if e == 0.0:
                    continue
                acc = acc + sign * 0.5 * e * _ref_comm(u[i], v[j])
        out[k] = acc
    return out


def _ref_div_cov(F, u, sign=1.0):
    acc = 0.0
    for i in range(3):
        acc = acc + _ref_deriv(F, u[i], i) + sign * _ref_comm(F.A[i], u[i])
    return acc


def _relerr(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("shape_u,shape_v,complex_", [
    ((3,), (3,), False),
    ((3, 4, 4, 4), (3, 4, 4, 4), False),
    ((3, 5), (3, 5), True),
    ((3, 1, 4), (3, 6, 4), False),
])
def test_comm_matches_cross(shape_u, shape_v, complex_):
    rng = np.random.default_rng(0)
    u = rng.normal(size=shape_u)
    v = rng.normal(size=shape_v)
    if complex_:
        u = u + 1j * rng.normal(size=shape_u)
        v = v + 1j * rng.normal(size=shape_v)
    got = comm(u, v)
    ref = _ref_comm(u, v)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("ndim", [4, 5])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_fd4_deriv_matches_roll_stencil(ndim, i):
    rng = np.random.default_rng(1)
    F = TorusField(8)
    f = rng.normal(size=(3,) * (ndim - 3) + (8, 8, 8))
    assert _relerr(F.deriv(f, i), _ref_deriv(F, f, i)) < 1e-13


def _deriv_input(kind, N):
    rng = np.random.default_rng(2)
    grid = (N, N, N)
    if kind == "connection_slice":  # F.A[:, 1]: a view, strided leading axis
        return random_field(rng, N, amplitude=1.0).A[:, 1]
    if kind == "strided":
        return rng.normal(size=(6,) + grid)[::2]
    if kind == "swapped_grid_axes":  # the last two axes not C-contiguous
        return np.swapaxes(rng.normal(size=(3,) + grid), -1, -2)
    if kind == "scalar":  # gauge_transform's w
        return rng.normal(size=grid)
    if kind == "complex":
        return rng.normal(size=(3,) + grid) + 1j * rng.normal(size=(3,) + grid)
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["connection_slice", "strided", "swapped_grid_axes",
                                  "scalar", "complex"])
@pytest.mark.parametrize("scheme,N", [("fd4", 8), ("spectral", 8), ("spectral", 7)])
def test_deriv_matches_references(kind, scheme, N):
    F = TorusField(N, scheme=scheme)
    f = _deriv_input(kind, N)
    for i in range(3):
        got, ref = F.deriv(f, i), _ref_deriv(F, f, i)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert _relerr(got, ref) < 1e-13


def test_fd4_diff_matrix_symbol():
    # constants go to 0; sin(kx) goes to the stencil symbol times cos(kx)
    N, L = 12, 2 * math.pi
    D = diff_matrix("fd4", N, L)
    h = L / N
    x = np.arange(N) * h
    assert np.max(np.abs(D @ np.ones(N))) < 1e-14 * np.max(np.abs(D))
    for k in (1, 2, 5):
        ktilde = (8 * math.sin(k * h) - math.sin(2 * k * h)) / (6 * h)
        np.testing.assert_allclose(D @ np.sin(k * x), ktilde * np.cos(k * x),
                                   rtol=0, atol=1e-13)
    assert D is diff_matrix("fd4", N, L) and not D.flags.writeable


def test_spectral_diff_matrix_symbol():
    # exact on the resolved modes; the Nyquist mode cos(pi n) is annihilated
    N, L = 12, 2 * math.pi
    D = diff_matrix("spectral", N, L)
    x = np.arange(N) * (L / N)
    for k in (1, 3, 5):
        np.testing.assert_allclose(D @ np.sin(k * x), k * np.cos(k * x), rtol=0, atol=1e-13)
    assert np.max(np.abs(D @ np.cos(6 * x))) < 1e-13
    with pytest.raises(ValueError, match="unknown scheme"):
        diff_matrix("fd2", N, L)


@pytest.fixture(params=["fd4", "spectral"])
def field(request):
    F = random_field(np.random.default_rng(4), 8, amplitude=0.3)
    F.scheme = request.param
    return F


def test_field_operators_match_eps_sums(field):
    F = field
    assert _relerr(b_field(F), _ref_b_field(F)) < 1e-13
    assert _relerr(curl_cov(F, F.a), _ref_curl_cov(F, F.a)) < 1e-13
    assert _relerr(star_wedge(F.a), _ref_star_wedge(F.a, F.a)) < 1e-13
    assert _relerr(div_cov(F, F.a), _ref_div_cov(F, F.a)) < 1e-13


def test_flipped_bracket_sign_is_caught(field):
    # the comparison above can fail: the wrong bracket sign is far off
    F = field
    assert _relerr(b_field(F), _ref_b_field(F, sign=-1.0)) > 1e-2
    assert _relerr(curl_cov(F, F.a), _ref_curl_cov(F, F.a, sign=-1.0)) > 1e-2
    assert _relerr(star_wedge(F.a), _ref_star_wedge(F.a, F.a, sign=-1.0)) > 1e-2
    assert _relerr(div_cov(F, F.a), _ref_div_cov(F, F.a, sign=-1.0)) > 1e-2


def test_sigma3_coefficient_field_is_the_sigma3_slice(field):
    # a (3, 1, N, N, N) field is the sigma3 coefficient of an abelian field:
    # each kernel on it equals, bit for bit, the sigma3 slice of the same
    # kernel on the embedded three-coefficient field
    full = field.copy()
    full.A[:, :2] = 0.0
    full.a[:, :2] = 0.0
    line = TorusField(full.N, full.L, full.A[:, 2:].copy(), full.a[:, 2:].copy(), full.scheme)
    assert comm(line.A[0], line.a[1]) == 0.0
    for i in range(3):
        assert np.array_equal(line.deriv(line.a, i), full.deriv(full.a, i)[:, 2:])
    assert np.array_equal(b_field(line), b_field(full)[:, 2:])
    assert np.array_equal(curl_cov(line, line.a), curl_cov(full, full.a)[:, 2:])
    assert np.array_equal(star_wedge(line.a), star_wedge(full.a)[:, 2:])
    assert np.array_equal(div_cov(line, line.a), div_cov(full, full.a)[2:])
    assert np.array_equal(curvature(line), curvature(full)[:, 2:])
    for g_line, g_full in zip(gradient(line), gradient(full)):
        assert np.array_equal(g_line, g_full[:, 2:])
    assert cs_functional(line) == cs_functional(full)
    with pytest.raises(ValueError, match="shape"):
        TorusField(full.N, A=full.A, a=line.a)


def _curvature_errors(F):
    """Relative errors of Re F_Z against B - star(a wedge a) and of Im F_Z
    against curl_A a."""
    FZ = curvature(F)
    return (_relerr(FZ.real, b_field(F) - star_wedge(F.a)),
            _relerr(FZ.imag, curl_cov(F, F.a)))


def test_curvature_matches_real_kernels(field):
    re_err, im_err = _curvature_errors(field)
    assert re_err <= 1e-13 and im_err <= 1e-13


def test_conjugated_bracket_is_caught(field, monkeypatch):
    # [conj Z_i, Z_j] in place of [Z_i, Z_j]; conj leaves the real kernels'
    # brackets alone, so only the curvature goes wrong, and far off
    exact = torus.comm
    monkeypatch.setattr(torus, "comm", lambda u, v, out=None: exact(np.conj(u), v, out))
    assert min(_curvature_errors(field)) > 1e-2


def test_cs_functional_matches_the_b_field_formula(field):
    # int <a, Re F_Z> + 2 int <[a1, a2], a3> against the defining
    # int ( sum_k <a_k, B_k> - <[a_1, a_2], a_3> )
    F = field
    B = b_field(F)
    want = F.integrate(sum(dot(F.a[k], B[k]) for k in range(3))
                       - dot(comm(F.a[0], F.a[1]), F.a[2]))
    assert abs(cs_functional(F) - want) <= 1e-13 * abs(want)


def curvature_six_products(F, Z=None, out=None, rows=None, scratch=None):
    """F_Z as six TorusField.deriv calls, each of one form component with
    every coefficient, and a comm per cyclic (k, i, j): the same arithmetic
    as curvature, in the order it adds the terms; curvature's signature.
    Every row at once: rows, curvature's x1 slab, must be None, and the
    scratch it would share between slabs goes unused."""
    assert rows is None
    if Z is None:
        Z = complex_connection(F)
    if out is None:
        out = np.empty_like(Z)
    for k, i, j in CYCLIC:
        F.deriv(Z[j], i, out=out[k])
        out[k] -= F.deriv(Z[i], j)
        zz = comm(Z[i], Z[j])
        if isinstance(zz, np.ndarray):  # 0.0 on the sigma3 line
            out[k] += zz
    return out


def _field_on(N, scheme, sigma3):
    F = random_field(np.random.default_rng(N), N, amplitude=0.3)
    F.scheme = scheme
    if sigma3:
        F = TorusField(N, F.L, F.A[:, 2:].copy(), F.a[:, 2:].copy(), scheme)
    return F


@pytest.mark.parametrize("sigma3", [True, False])
@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
@pytest.mark.parametrize("N", [7, 12])
def test_curvature_is_the_six_product_loop(N, scheme, sigma3):
    F = _field_on(N, scheme, sigma3)
    assert np.array_equal(curvature(F), curvature_six_products(F))


def _count_deriv(monkeypatch):
    calls = []
    exact = TorusField.deriv

    def counted(self, f, i, out=None, rows=None):
        calls.append(i)
        return exact(self, f, i, out, rows)

    monkeypatch.setattr(TorusField, "deriv", counted)
    return calls


@pytest.mark.parametrize("sigma3", [True, False])
def test_curvature_makes_three_derivative_products_per_coefficient(monkeypatch, sigma3):
    F = _field_on(8, "fd4", sigma3)
    calls = _count_deriv(monkeypatch)
    curvature(F)
    assert calls == [0, 1, 2] * F.A.shape[1]


def swap_x2_scratch_slots(monkeypatch):
    """Plant a wrong slot map in curvature: its x2 call writes the x2
    derivatives of Z[0] and Z[2] into each other's scratch slots.  Only
    curvature passes deriv a pair of slots to write, so the real kernels
    and the six-product loop are untouched."""
    exact = TorusField.deriv

    def swapped(self, f, i, out=None, rows=None):
        if i == 1 and out is not None and len(out) == 2:
            out = out[::-1]
        return exact(self, f, i, out, rows)

    monkeypatch.setattr(TorusField, "deriv", swapped)


@pytest.mark.parametrize("sigma3", [True, False])
def test_swapped_scratch_slots_are_caught(monkeypatch, sigma3):
    F = _field_on(8, "fd4", sigma3)
    want = curvature_six_products(F)
    swap_x2_scratch_slots(monkeypatch)
    # both comparisons fail: the six-product loop and the real kernels
    assert _relerr(curvature(F), want) > 1e-2
    assert min(_curvature_errors(F)) > 1e-2


@pytest.mark.parametrize("complex_", [True, False])
@pytest.mark.parametrize("c", [1, 3])
def test_deriv_of_stacked_slots_is_the_per_slot_deriv(complex_, c):
    # the operands curvature passes, two form components at the strides of
    # a (3, c, N, N, N) field, written where curvature writes them: the x1
    # pair into slots 2 and 1 of the result (a negative slot stride), the
    # others into its scratch
    N = 8
    rng = np.random.default_rng(9)
    F = TorusField(N)
    Z = rng.normal(size=(3, c, N, N, N))
    if complex_:
        Z = Z + 1j * rng.normal(size=Z.shape)
    for s in range(c):
        out = np.full_like(Z, np.nan)
        d = np.full((4, N, N, N), np.nan, Z.dtype)
        for i, (pick, dest) in enumerate(((slice(1, 3), out[2:0:-1, s]),
                                          (slice(None, None, 2), d[0:2]),
                                          (slice(0, 2), d[2:4]))):
            f = Z[pick, s]
            assert F.deriv(f, i, out=dest) is dest
            want = [F.deriv(Z[m, s], i) for m in range(3)[pick]]
            assert np.array_equal(dest, np.stack(want)), (s, i)
            assert np.array_equal(F.deriv(f, i), dest), (s, i)


@pytest.mark.parametrize("N", [24, 32])
@pytest.mark.parametrize("complex_", [True, False])
def test_blocked_products_are_the_whole_product(N, complex_):
    # above SERIAL_GEMM_MNK deriv cuts its products into blocks; each block
    # is a slice of the whole product, so every axis, whole or at a slab of
    # x1 rows, equals one np.matmul bit for bit
    rng = np.random.default_rng(4)
    F = TorusField(N)
    f = rng.normal(size=(2, N, N, N))
    if complex_:
        f = f + 1j * rng.normal(size=f.shape)
    D = diff_matrix("fd4", N, F.L)
    v = f.view(float) if complex_ else f
    pair = np.kron(D, np.eye(2)) if complex_ else D
    whole = [np.matmul(D, v.reshape(2, N, -1)).reshape(v.shape),
             np.matmul(D, v), np.matmul(v, np.asfortranarray(pair).T)]
    for i, ref in enumerate(whole):
        ref = ref.view(complex) if complex_ else ref
        assert np.array_equal(F.deriv(f, i), ref), i
        out = np.empty_like(f)
        for rows in (slice(0, N // 2), slice(N // 2, N)):
            F.deriv(f, i, out=out[:, rows], rows=rows)
        assert np.array_equal(out, ref), i
