import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy.integrate import solve_ivp as scipy_solve_ivp

from tevp.forward import (_DEGREE, _step_polynomials, characteristic,
                          characteristic_batch, log_derivative_batch,
                          scaled_characteristic, solve_ivp, steps_for)
from tevp.profiles import ConstantProfile


def _d_const4(k):
    """Closed form for eta == 4: d(k) = -sin(k)^3 / k."""
    k = complex(k)
    return -cmath.sin(k) ** 3 / k


CONST4 = ConstantProfile(4.0)
_A_COLTON = math.log(3.0)


def _scaled_trig(z):
    """sin z, cos z times exp(-|Im z|)."""
    t = np.abs(z.imag)
    ep, em = np.exp(1j * z - t), np.exp(-1j * z - t)
    return (ep - em) / 2j, (ep + em) / 2.0


def _colton_closed_form(k):
    """d, d' of colton_example and the sizes of their terms, all scaled.

    d = (sqrt3/2)[cos(mu a) sin k/k - sin(mu a) cos k/mu], mu = sqrt(k^2 - 1/4),
    a = ln 3.  Returns (d, d', |terms of d|, |terms of d'|, log factor): the
    true values are the returned ones times exp(log factor).
    """
    k = np.asarray(k, dtype=complex)
    mu = np.sqrt(k * k - 0.25)
    a = _A_COLTON
    sk, ck = _scaled_trig(k)
    sm, cm = _scaled_trig(mu * a)
    terms = (cm * sk / k, -sm * ck / mu)
    dterms = (-a * sm * sk / mu, cm * (k * ck - sk) / k**2,
              -(a * mu * cm - sm) * k * ck / mu**3, sm * sk / mu)
    c = 0.5 * math.sqrt(3.0)
    return (c * sum(terms), c * sum(dterms), c * sum(map(np.abs, terms)),
            c * sum(map(np.abs, dterms)), np.abs(k.imag) + a * np.abs(mu.imag))


def test_scalar_characteristic_matches_closed_form():
    for k in (0.7, 3.2, 11.0, 2.0 + 1.5j, 9.0 - 2.0j):
        cv = characteristic(CONST4, k, tol=1e-13)
        assert cv.value() == pytest.approx(_d_const4(k), rel=1e-9, abs=1e-12)


def test_batch_characteristic_matches_closed_form():
    ks = np.array([0.5, 2.0, 7.0, 31.0, 3.0 + 2.0j, 20.0 + 4.0j, 0.1 - 0.2j])
    d_s, _, scale = characteristic_batch(CONST4, ks)
    expect = np.array([_d_const4(k) for k in ks])
    got = d_s * np.exp(scale)
    assert_allclose(got, expect, rtol=5e-11, atol=1e-13)


def test_log_derivative_closed_form():
    # d'/d = 3 cot k - 1/k for eta == 4
    ks = np.array([1.1, 2.7, 14.0, 2.0 + 1.0j])
    ld = log_derivative_batch(CONST4, ks)
    expect = 3.0 / np.tan(ks.astype(complex)) - 1.0 / ks
    assert_allclose(ld, expect, rtol=1e-10)


def test_derivative_vs_finite_difference():
    h = 1e-6
    for k in (2.3, 8.1, 4.0 + 2.5j):
        cv = characteristic(CONST4, k, tol=1e-13)
        fd = (_d_const4(k + h) - _d_const4(k - h)) / (2.0 * h)
        d_prime = cv.d_prime * np.exp(cv.scale_log)
        assert d_prime == pytest.approx(fd, rel=1e-8)


def test_small_k_series_path():
    # d is entire; the k -> 0 limit must be finite and smooth
    cv0 = characteristic(CONST4, 1e-6, tol=1e-13)
    cv1 = characteristic(CONST4, 1e-4, tol=1e-13)
    # d(k) = -sin^3 k / k ~ -k^2 near 0
    assert cv0.value() == pytest.approx(-1e-12, rel=1e-5)
    assert cv1.value() == pytest.approx(-1e-8, rel=1e-5)


def test_batch_scalar_cross_check_generic_profile(colton):
    ks = np.array([5.0, 17.0, 12.0 + 3.0j, 40.0 + 5.0j])
    d_s, dp_s, scale = characteristic_batch(colton, ks)
    for i, k in enumerate(ks):
        cv = characteristic(colton, complex(k), tol=1e-13)
        rel = abs(d_s[i] * np.exp(scale[i]) - cv.value()) / abs(cv.value())
        assert rel < 1e-9
        ld_batch = dp_s[i] / d_s[i]
        ld_scalar = cv.d_prime / cv.d
        assert abs(ld_batch - ld_scalar) / abs(ld_scalar) < 1e-8


@pytest.mark.parametrize("size", [1, 64, 1024, 4096])
def test_batch_matches_colton_closed_form(colton, size):
    # small batches run in long blocks of steps, large ones in short blocks
    k = np.linspace(1.0, 150.0, size) + 1j * np.array([0.0, 2.0, 8.0])[np.arange(size) % 3]
    d_s, dp_s, scale = characteristic_batch(colton, k)
    d, dp, size_d, size_dp, log_factor = _colton_closed_form(k)
    factor = np.exp(scale - log_factor)
    assert np.max(np.abs(d_s * factor - d) / size_d) <= 1e-11
    assert np.max(np.abs(dp_s * factor - dp) / size_dp) <= 1e-11


def test_step_polynomials_drop_only_zero_powers(colton):
    full = _step_polynomials(colton, 96, degree=12)
    assert np.all(full[..., _DEGREE + 1:] == 0.0)
    assert np.array_equal(full[..., :_DEGREE + 1], _step_polynomials(colton, 96))


def test_adaptive_overflow_fallback_matches_dop853(colton):
    # growth (1 + sqrt(eta_max)) |Im k| > 600 sends characteristic() to the
    # batch engine; y itself stays representable here, so DOP853 can check it
    k = 5.0 + 260.0j
    assert (1.0 + math.sqrt(colton.eta_max)) * k.imag > 600.0
    cv = characteristic(colton, k)

    def rhs(r, w):
        e = colton.eta(r)
        return [w[1], -k * k * e * w[0], w[3], -k * k * e * w[2] - 2.0 * k * e * w[0]]

    sol = scipy_solve_ivp(rhs, (0.0, 1.0), np.array([0, 1, 0, 0], dtype=complex),
                          method="DOP853", rtol=1e-12, atol=1e-12, max_step=0.5 / abs(k))
    y1, dy1, v1, dv1 = sol.y[:, -1]
    d = dy1 * cmath.sin(k) / k - y1 * cmath.cos(k)
    dp = (dv1 * cmath.sin(k) / k + dy1 * (k * cmath.cos(k) - cmath.sin(k)) / k**2
          - v1 * cmath.cos(k) + y1 * cmath.sin(k))
    assert cv.value() == pytest.approx(d, rel=1e-8)
    assert cv.d_prime * np.exp(cv.scale_log) == pytest.approx(dp, rel=1e-8)


def test_large_imaginary_part_no_overflow(colton):
    # growth exp((1+a)|Im k|) would overflow unscaled around |Im k| ~ 350
    # at 5+1000i even the unscaled state would overflow within the sweep
    for k in (5.0 + 400.0j, 5.0 + 1000.0j):
        d_s, _, scale = characteristic_batch(colton, np.array([k]))
        assert np.isfinite(d_s).all()
        assert scale[0] > 700.0     # the removed factor is genuinely huge
        d, _, _, _, log_factor = _colton_closed_form(k)
        assert d_s[0] * np.exp(scale[0] - log_factor) == pytest.approx(complex(d), rel=1e-8)


def test_scaled_characteristic_bounded_on_rays(colton):
    ks = np.array([3.0, 30.0, 3.0 + 3.0j, 30.0 + 6.0j, 1.0 + 10.0j])
    D = scaled_characteristic(colton, ks)
    assert np.all(np.abs(D) < 50.0)


def test_solve_ivp_boundary_values_and_init():
    # eta == 1: y = sin(kr)/k, y' = cos(kr)
    p1 = ConstantProfile(1.0)
    k = 3.7
    bv = solve_ivp(p1, k, tol=1e-13)
    assert bv.y1 * np.exp(bv.scale_log) == pytest.approx(math.sin(k) / k,
                                                         abs=1e-11)
    assert bv.dy1 * np.exp(bv.scale_log) == pytest.approx(math.cos(k),
                                                          abs=1e-11)
    # second solution via init override: y2 = cos(kr), Wronskian = -k... use
    # y2(0)=1, y2'(0)=0 -> y2 = cos(kr); W(y1,y2) = y1 y2' - y1' y2 = -1
    bv2 = solve_ivp(p1, k, tol=1e-13, init=(1.0, 0.0))
    W = bv.y1 * bv2.dy1 - bv.dy1 * bv2.y1
    assert W == pytest.approx(-1.0, abs=1e-10)


def test_tol_validation():
    with pytest.raises(ValueError):
        solve_ivp(CONST4, 1.0, tol=1e-3)
    with pytest.raises(ValueError):
        characteristic(CONST4, 1.0, tol=1e-16)


def test_steps_scale_with_k():
    assert steps_for(CONST4, 100.0) >= 2 * steps_for(CONST4, 50.0) - 1
    assert steps_for(CONST4, 0.1) == 64   # floor
