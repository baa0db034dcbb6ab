"""End-to-end acceptance suite.

Each test pins one headline guarantee of the package at its stated
tolerance; the unit-test files cover the finer-grained contracts.  The
expensive spectrum searches are shared session fixtures (see conftest.py).
"""

import cmath
import math
import time

import numpy as np
import pytest

from tevp.asymptotics import (case_from_profile, counting_check, match,
                              solve_transcendental)
from tevp.errors import DegenerateCharacteristic
from tevp.forward import characteristic, characteristic_batch, scaled_characteristic
from tevp.inverse import (UniquenessScenario, load_scenario, theorem3_epsilon,
                          theorem4_threshold, wronskian_g)
from tevp.kernel import boundary_traces, representation_boundary, solve_kernel
from tevp.profiles import (ConstantProfile, get_profile, liouville_transform,
                           subinterval_boundary, travel_time)
from tevp.zeros import count_zeros, find_zeros
from tevp.forward import solve_ivp


# -- 1. closed-form oracle spectrum ----------------------------------------

def test_acceptance_01_triple_zero_spectrum(const4):
    # eta == 4: d(k) = -sin^3(k)/k, triple zeros at n*pi
    t0 = time.monotonic()
    rep = find_zeros(const4, (0.5, 10.2 * math.pi, 0.0, 1.0))
    assert len(rep.zeros) == 10
    for n, z in enumerate(rep.zeros, start=1):
        assert z.multiplicity == 3
        assert abs(z.k - n * math.pi) <= 1e-8
    assert count_zeros(const4, (0.5, 10.2 * math.pi, -1.0, 1.0)) == 30
    assert time.monotonic() - t0 <= 30.0


# -- 2. degeneracy ----------------------------------------------------------

def test_acceptance_02_degenerate_characteristic():
    p = ConstantProfile(1.0)
    ks = np.linspace(1.0, 50.0, 201)
    assert np.max(np.abs(scaled_characteristic(p, ks))) <= 1e-9
    with pytest.raises(DegenerateCharacteristic):
        find_zeros(p, (0.5, 20.0, 0.0, 2.0))


# -- 3. travel time ----------------------------------------------------------

def test_acceptance_03_travel_time(colton):
    t0 = time.monotonic()
    assert abs(travel_time(colton) - math.log(3.0)) <= 1e-10
    assert time.monotonic() - t0 <= 1.0


# -- 4. non-real asymptotics, a > 1 regime -----------------------------------

def test_acceptance_04_asymptotic_matching(colton, colton_spectrum_150):
    t0 = time.monotonic()
    case = case_from_profile(colton)
    assert case.m == 0
    assert case.eta_deriv == pytest.approx(1.0, abs=1e-9)
    rep = match(colton_spectrum_150, case)

    # (i) every computed non-real zero in the window is matched
    assert rep.unmatched_zeros == []
    matched_window = [p for p in rep.matched if 5 <= p.n <= 30]
    assert len(matched_window) >= 20

    # (ii) residual decay from the [5,15] window to the [20,30] window
    assert rep.max_residual(20, 30) <= rep.max_residual(5, 15)

    # (iii) logarithmic curve of the imaginary parts
    for p in rep.matched:
        if p.n >= 10:
            target = 0.5 * math.log(16.0 * p.n ** 2 * math.pi ** 2)
            assert abs(p.computed.imag - target) <= 0.10 * target
    assert time.monotonic() - t0 <= 600.0   # fixture cost counted separately


# -- 5. counting law ----------------------------------------------------------

def test_acceptance_05_counting_law(colton_spectrum_150):
    rows = counting_check(colton_spectrum_150, [50.0, 75.0, 100.0, 125.0, 150.0])
    gaps = [abs(ratio - 1.0) for _, _, ratio in rows]
    assert gaps[-1] <= 0.2
    # the sequence moves toward 1: the final value is the closest
    # (1e-9 slack tolerates exact ties between neighbouring radii)
    assert all(gaps[-1] <= g + 1e-9 for g in gaps[:-1])


# -- 6. kernel identities ------------------------------------------------------

def test_acceptance_06_kernel_identities(colton_lv):
    t0 = time.monotonic()
    a = colton_lv.a
    kg = solve_kernel(colton_lv, h=a / 400.0)
    q_abs = np.abs(kg.q)            # int |q| by the trapezoid on the kernel grid
    scale = max(1.0, kg.delta * (q_abs.sum() - 0.5 * (q_abs[0] + q_abs[-1])))
    assert kg.diagonal_residual() <= 5e-4 * scale
    assert np.max(np.abs(kg.K[:, 0])) == 0.0

    _, K1, K2 = boundary_traces(kg)
    assert abs(K1[-1] + K2[-1] - 0.125) <= 5e-4

    # order-2 convergence of the diagonal residual under h -> h/2.  The
    # example profile's transformed potential is exactly constant (q = 1/4),
    # which makes its diagonal residual zero at every h (0/0 factor), so the
    # halving factor is demonstrated on a profile with non-constant q.
    lv = liouville_transform(get_profile("raised_cosine"))
    r1 = solve_kernel(lv, h=lv.a / 200.0).diagonal_residual()
    r2 = solve_kernel(lv, h=lv.a / 400.0).diagonal_residual()
    assert 3.0 <= r1 / r2 <= 5.0
    assert time.monotonic() - t0 <= 120.0


# -- 7. representation oracle ---------------------------------------------------

def test_acceptance_07_boundary_representation(colton, colton_lv):
    kg_h = solve_kernel(colton_lv, h=colton_lv.a / 200.0)
    kg_h2 = solve_kernel(colton_lv, h=colton_lv.a / 400.0)
    ks = np.array([1.0, math.pi, 7.3, 15.0])
    y_h, dy_h = representation_boundary(kg_h, ks)
    y_h2, dy_h2 = representation_boundary(kg_h2, ks)
    y = (4.0 * y_h2 - y_h) / 3.0          # Richardson extrapolation, order 2
    dy = (4.0 * dy_h2 - dy_h) / 3.0
    for i, k in enumerate(ks):
        bv = solve_ivp(colton, float(k), tol=1e-13)
        assert abs(y[i] - bv.y1 * np.exp(bv.scale_log)) <= 1e-5
        assert abs(dy[i] - bv.dy1 * np.exp(bv.scale_log)) <= 1e-5


# -- 8. Wronskian identity ------------------------------------------------------

def test_acceptance_08_wronskian_identity(rng):
    sc = load_scenario({
        "q": "colton_example",
        "q_tilde": {"base": "colton_example",
                    "bump": {"amplitude": 0.8, "center": 0.3, "width": 0.2}},
        "agree_from": 0.6,
    })
    for _ in range(50):
        k = complex(rng.uniform(-30.0, 30.0), rng.uniform(0.0, 3.0))
        g_int, g_wron = wronskian_g(sc, k)
        assert abs(g_int - g_wron) <= 1e-8 * max(1.0, abs(g_int))


# -- 9. subinterval arithmetic ---------------------------------------------------

def test_acceptance_09_subinterval_arithmetic(colton):
    from scipy.integrate import quad
    a = travel_time(colton)
    eps = theorem3_epsilon(colton).epsilon
    eps1 = subinterval_boundary(colton, 0.5 * (a + 1.0))
    mass, _ = quad(lambda r: math.sqrt(float(colton.eta(r))), eps1, eps,
                   epsabs=1e-12, epsrel=1e-12)
    assert abs(mass - 1.0) <= 1e-9
    assert theorem4_threshold(a, 0.5 * (a - 1.0)) == 2.0


# -- 10. symmetry suite ------------------------------------------------------------

def test_acceptance_10_symmetry_and_derivative(colton, colton_spectrum_40, rng):
    ks = np.array([z.k for z in colton_spectrum_40.zeros])
    scale = np.max(np.abs(scaled_characteristic(colton, ks + 0.5)))
    for sym in (np.conj(ks), -ks):
        vals = np.abs(scaled_characteristic(colton, sym))
        assert np.max(vals) <= 1e-8 * max(1.0, scale)

    # d' against central finite differences at random off-zero points
    k0 = (rng.uniform(1.0, 20.0, 20) + 1j * rng.uniform(0.0, 2.0, 20))
    h = 1e-5
    for k in k0:
        cv = characteristic(colton, k)
        d_s, _, slog = characteristic_batch(colton, [k - h, k + h])
        fd = (d_s[1] * np.exp(slog[1]) - d_s[0] * np.exp(slog[0])) / (2.0 * h)
        dd = cv.d_prime * math.exp(cv.scale_log)
        assert abs(fd - dd) <= 1e-6 * max(1.0, abs(dd))


# -- 11. transcendental solver ------------------------------------------------------

def test_acceptance_11_transcendental_solver():
    # ring sampled off the negative real axis, where the principal-branch
    # equation has no solution for negative lambda (see test_asymptotics)
    assert solve_transcendental(0.0, 100.0j) == 100.0j
    for lam in (-2.0, -1.0, -0.5, 0.0, 1.0):
        for j in range(16):
            w = 100.0 * cmath.exp(1j * (2 * j + 1) * math.pi / 16.0)
            z = solve_transcendental(lam, w)
            assert abs(z - lam * cmath.log(z) - w) <= 1e-12
