import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kwlab import algebra as al

coef = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)
triple = st.tuples(coef, coef, coef)


def sl2c(re, im):
    return al.coeffs_to_su2(np.array(re) + 1j * np.array(im))


def test_sigma_product_table_exact():
    s = [al.basis_sigma(i) for i in (1, 2, 3)]
    for i in range(3):
        assert np.max(np.abs(s[i] @ s[i] + np.eye(2))) < 1e-15
    assert np.max(np.abs(s[0] @ s[1] + s[2])) < 1e-15
    assert np.max(np.abs(s[1] @ s[2] + s[0])) < 1e-15
    assert np.max(np.abs(s[2] @ s[0] + s[1])) < 1e-15
    assert abs(np.trace(s[2])) == 0.0


def test_sigma_index_errors():
    with pytest.raises(ValueError):
        al.basis_sigma(0)
    with pytest.raises(ValueError):
        al.basis_sigma(4)


def test_inner_orthonormal():
    s1, s2 = al.basis_sigma(1), al.basis_sigma(2)
    assert abs(al.inner(s1, s1) - 1.0) < 1e-15
    assert abs(al.inner(s1, s2)) < 1e-15
    # the square of sigma1 - i sigma2 has vanishing trace pairing
    assert abs(al.inner(al.E_PLUS, al.E_PLUS)) < 1e-15


@given(triple, triple)
@settings(max_examples=50, deadline=None)
def test_su2_inner_real_nonneg(u, v):
    uu = al.coeffs_to_su2(np.array(u))
    vv = al.coeffs_to_su2(np.array(v))
    ip = al.inner(uu, uu)
    assert abs(ip.imag) < 1e-12
    assert ip.real >= -1e-12
    assert abs(al.inner(uu, vv).imag) < 1e-12


@given(triple, triple, triple, triple)
@settings(max_examples=50, deadline=None)
def test_l_decompose_reconstruct(re1, im1, re2, im2):
    v = sl2c(re1, im1)
    d = al.l_decompose(v)
    assert np.max(np.abs(d.reconstruct() - v)) < 1e-12
    # eigenspace property under ad(i/2 sigma3)
    assert np.max(np.abs(al.ad_half_isigma3(d.plus) - d.plus)) < 1e-12
    assert np.max(np.abs(al.ad_half_isigma3(d.minus) + d.minus)) < 1e-12
    w = sl2c(re2, im2)
    dw = al.l_decompose(w)
    # brackets and trace pairing vanish within L+
    assert np.max(np.abs(al.bracket(d.plus, dw.plus))) < 1e-10
    assert abs(al.inner(d.plus, dw.plus)) < 1e-10


def test_l_decompose_examples():
    d3 = al.l_decompose(al.basis_sigma(3))
    assert abs(d3.zero - 1.0) < 1e-14
    assert np.max(np.abs(d3.plus)) < 1e-14 and np.max(np.abs(d3.minus)) < 1e-14
    d1 = al.l_decompose(al.basis_sigma(1))
    assert abs(d1.zero) < 1e-14
    assert np.max(np.abs(d1.plus)) > 0.1 and np.max(np.abs(d1.minus)) > 0.1


@given(triple, triple)
@settings(max_examples=30, deadline=None)
def test_bracket_antisymmetry_traceless(u, v):
    uu, vv = al.coeffs_to_su2(np.array(u)), al.coeffs_to_su2(np.array(v))
    b = al.bracket(uu, vv)
    assert np.max(np.abs(b + al.bracket(vv, uu))) < 1e-12
    assert abs(np.trace(b)) < 1e-12
    assert np.max(np.abs(al.bracket(uu, uu))) == 0.0


def test_bracket_value():
    s1, s2, s3 = (al.basis_sigma(i) for i in (1, 2, 3))
    assert np.max(np.abs(al.bracket(s1, s2) + 2 * s3)) < 1e-15


def test_star_involution_and_swap():
    rng = np.random.default_rng(0)
    v = al.random_sl2c(rng)
    assert np.max(np.abs(al.star(al.star(v)) - v)) < 1e-14
    u = al.coeffs_to_su2(rng.normal(size=3))
    assert np.max(np.abs(al.star(u) - u)) < 1e-14
    p = al.l_decompose(v).plus
    sp = al.star(p)
    d = al.l_decompose(sp)
    assert np.max(np.abs(d.plus)) < 1e-12  # star(L+) lies in L-
    assert np.max(np.abs(d.minus - sp)) < 1e-12


@given(triple, triple, triple, triple)
@settings(max_examples=30, deadline=None)
def test_coeff_bracket_and_norm_match_matrices(ur, ui, vr, vi):
    u, v = np.array(ur) + 1j * np.array(ui), np.array(vr) + 1j * np.array(vi)
    want = al.bracket(al.coeffs_to_su2(u), al.coeffs_to_su2(v))
    assert np.max(np.abs(al.coeffs_to_su2(al.coeff_bracket(u, v)) - want)) < 1e-12
    # real coefficients stay real, and the kernel broadcasts over leading axes
    batch = al.coeff_bracket(np.array(ur)[None, :], np.stack([np.array(vr)] * 4))
    assert batch.dtype == float and batch.shape == (4, 3)
    assert np.max(np.abs(batch - al.coeff_bracket(np.array(ur), np.array(vr)))) == 0.0
    assert al.coeff_norm(u) == pytest.approx(float(al.norm(al.coeffs_to_su2(u))), rel=1e-12)


@pytest.mark.parametrize("complex_", [False, True])
def test_batched_oracle_equals_stacked_scalar_calls(complex_):
    rng = np.random.default_rng(4)
    c = rng.normal(size=(5, 7, 3)) + (1j * rng.normal(size=(5, 7, 3)) if complex_ else 0)
    m = al.coeffs_to_su2(c)
    assert m.shape == (5, 7, 2, 2)
    assert np.array_equal(m, np.array([[al.coeffs_to_su2(x) for x in row] for row in c]))
    d = al.l_decompose(m)
    scalar = [[al.l_decompose(x) for x in row] for row in m]
    for part in ("plus", "zero", "minus"):
        assert np.array_equal(getattr(d, part),
                              np.array([[getattr(s, part) for s in row] for row in scalar]))
    assert np.array_equal(d.reconstruct(),
                          np.array([[s.reconstruct() for s in row] for row in scalar]))
    w = al.coeffs_to_su2(c[::-1])
    assert np.array_equal(al.inner(m, w),
                          np.array([[al.inner(x, y) for x, y in zip(r, q)] for r, q in zip(m, w)]))
    # one element keeps the scalar shapes
    assert al.l_decompose(m[0, 0]).reconstruct().shape == (2, 2)
    assert np.ndim(al.inner(m[0, 0], w[0, 0])) == 0


def _algebra_metrics_per_sample(seed):
    """The algebra suite's sampled metrics as a loop over its 1000 samples,
    one 2x2 element at a time; the kernel check draws after them, so it
    reads the stream where the loop left it."""
    from kwlab.suites import coeff_kernels_check

    rng = np.random.default_rng(seed)
    worst_rec = worst_inner = worst_eig = 0.0
    for _ in range(1000):
        v = al.random_sl2c(rng)
        d = al.l_decompose(v)
        worst_rec = max(worst_rec, float(np.max(np.abs(d.reconstruct() - v))))
        worst_eig = max(
            worst_eig,
            float(np.max(np.abs(al.ad_half_isigma3(d.plus) - d.plus))),
            float(np.max(np.abs(al.ad_half_isigma3(d.minus) + d.minus))),
        )
        u = al.coeffs_to_su2(rng.normal(size=3))
        worst_inner = max(worst_inner, abs(al.inner(u, u).imag))
        if al.inner(u, u).real < -1e-15:
            worst_inner = math.inf
    u = al.random_sl2c(rng)
    v = al.random_sl2c(rng)
    pu = al.l_decompose(u).plus
    pv = al.l_decompose(v).plus
    return {
        "l_decompose_reconstruct": worst_rec,
        "l_eigenspaces": worst_eig,
        "su2_inner_real_positive": worst_inner,
        "lplus_isotropic": max(abs(al.inner(pu, pv)),
                               float(np.max(np.abs(al.bracket(pu, pv))))),
        "star_involution": max(float(np.max(np.abs(al.star(al.star(u)) - u))),
                               float(np.max(np.abs(al.l_decompose(al.star(pu)).plus)))),
        "coeff_kernels_match_matrices": coeff_kernels_check(rng).metric,
    }


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_algebra_suite_batch_equals_per_sample_loop(seed):
    from kwlab.suites import algebra_suite

    got = {c.check_id: c.metric for c in algebra_suite(seed)}
    for check, want in _algebra_metrics_per_sample(seed).items():
        assert got[check] == want, check
