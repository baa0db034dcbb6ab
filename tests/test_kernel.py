import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid
from scipy.interpolate import RegularGridInterpolator

from tevp import kernel
from tevp.cli import EXIT_NUMERIC, main
from tevp.errors import NoConvergence
from tevp.forward import solve_ivp
from tevp.kernel import boundary_traces, representation_boundary, solve_kernel
from tevp.profiles import ConstantProfile, get_profile, liouville_transform


def test_zero_potential_gives_zero_kernel():
    lv = liouville_transform(ConstantProfile(1.0))
    kg = solve_kernel(lv, h=lv.a / 100)
    assert np.max(np.abs(kg.K)) <= 1e-14
    assert kg.iterations <= 2


def test_discrete_diagonal_identity(colton_lv):
    kg = solve_kernel(colton_lv, h=colton_lv.a / 200)
    # the scheme reproduces 2K(x,x) = Q(x) to machine precision
    assert np.max(np.abs(2.0 * np.diagonal(kg.K) - kg.Q)) <= 1e-13
    assert np.max(np.abs(kg.K[:, 0])) == 0.0


def test_diagonal_residual_order2():
    lv = liouville_transform(get_profile("raised_cosine"))
    r1 = solve_kernel(lv, h=lv.a / 200).diagonal_residual()
    r2 = solve_kernel(lv, h=lv.a / 400).diagonal_residual()
    assert 3.0 <= r1 / r2 <= 5.0


def test_trace_endpoint_identity(colton_lv):
    kg = solve_kernel(colton_lv, h=colton_lv.a / 400)
    _, K1, K2 = boundary_traces(kg)
    qa = float(colton_lv.q(colton_lv.a))
    assert K1[-1] + K2[-1] == pytest.approx(0.5 * qa, abs=5e-4)
    assert 0.5 * qa == 0.125    # the example profile's constant potential


def test_trace_sum_identity(colton_lv):
    # K1(t) + K2(t) = q((a+t)/2)/2 + int_{(a+t)/2}^a q(tau) K(tau, a+t-tau)
    kg = solve_kernel(colton_lv, h=colton_lv.a / 400)
    a = colton_lv.a
    t, K1, K2 = boundary_traces(kg)
    K = RegularGridInterpolator((kg.x, kg.x), kg.K)     # bilinear in (x, t)
    for idx in (len(t) // 4, len(t) // 2, 3 * len(t) // 4):
        tt = t[idx]
        taus = np.linspace(0.5 * (a + tt), a, 801)
        vals = colton_lv.q(taus) * K(np.column_stack([taus, a + tt - taus]))
        rhs = 0.5 * float(colton_lv.q(0.5 * (a + tt))) + trapezoid(vals, taus)
        assert K1[idx] + K2[idx] == pytest.approx(rhs, abs=1e-6)


def test_representation_matches_ivp(colton, colton_lv):
    kg_h = solve_kernel(colton_lv, h=colton_lv.a / 200)
    kg_h2 = solve_kernel(colton_lv, h=colton_lv.a / 400)
    ks = np.array([1.0, math.pi, 7.3, 15.0])
    y_h, dy_h = representation_boundary(kg_h, ks)
    y_h2, dy_h2 = representation_boundary(kg_h2, ks)
    y = (4.0 * y_h2 - y_h) / 3.0
    dy = (4.0 * dy_h2 - dy_h) / 3.0
    for i, k in enumerate(ks):
        bv = solve_ivp(colton, float(k), tol=1e-13)
        assert abs(y[i] - bv.y1 * np.exp(bv.scale_log)) <= 1e-5
        assert abs(dy[i] - bv.dy1 * np.exp(bv.scale_log)) <= 1e-5


def test_convergence_reported(colton_lv):
    kg = solve_kernel(colton_lv, h=colton_lv.a / 100)
    assert kg.final_delta <= 1e-12 * (1.0 + np.max(np.abs(kg.K)))
    assert kg.iterations < 50


# ---------------------------------------------------------------------------
# Oracle: the per-line loop sweep and loop traces that the index plan replaced
# ---------------------------------------------------------------------------


def _loop_cumtrapz(v, delta):
    return np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1])))) * delta


def _loop_fill_odd(K, M):
    for i in range(M + 1):
        js = np.arange(1 + i % 2, i, 2)
        if js.size:
            K[i, js] = 0.5 * (K[i, js - 1] + K[i, js + 1])
    K[:, 0] = 0.0


def _loop_solve_kernel(liouville, h, tol=1e-12, max_iter=200):
    """Returns (K, iterations, final_delta) of the loop sweep."""
    a = liouville.a
    n = max(8, int(round(a / h)))
    M = 2 * n
    delta = a / M
    x = np.linspace(0.0, a, M + 1)
    q = np.asarray(liouville.q(x), dtype=float)
    Q = _loop_cumtrapz(q, delta)
    jj, ii = np.meshgrid(np.arange(M + 1), np.arange(M + 1))
    lower = jj <= ii
    even = ((ii + jj) % 2 == 0) & lower
    K = np.zeros((M + 1, M + 1))
    K[even] = 0.5 * (Q[(ii + jj)[even] // 2] - Q[(ii - jj)[even] // 2])
    _loop_fill_odd(K, M)
    Bpad = np.zeros((M + 1, M // 2 + 2))
    Apad = np.zeros((M + 1, M + 1))
    for it in range(1, max_iter + 1):
        C = np.zeros_like(K)
        C[:, 1:] = np.cumsum(0.5 * (K[:, 1:] + K[:, :-1]), axis=1) * delta
        C[~lower] = 0.0
        W = q[:, None] * C
        Dv = _loop_cumtrapz(np.diagonal(W), delta)
        for p in range(M + 1):
            dg = np.diagonal(W, offset=-p)
            Apad[p, :dg.size] = _loop_cumtrapz(dg, delta)
        for c in range(0, 2 * M + 1, 2):
            ls = np.arange(c // 2, min(c, M) + 1)
            Bpad[c // 2, :ls.size] = _loop_cumtrapz(W[ls, c - ls], delta)
        Knew = np.zeros_like(K)
        for i in range(M + 1):
            js = np.arange(i % 2, i + 1, 2)
            p, c = i - js, i + js
            val = (Q[c // 2] - Q[p // 2]) + (Dv[c // 2] - Dv[p // 2]) \
                - Apad[p, i - p] - Bpad[p // 2, p - p // 2] \
                + Bpad[c // 2, i - c // 2]
            Knew[i, js] = 0.5 * val
        _loop_fill_odd(Knew, M)
        diff = float(np.max(np.abs(Knew - K)))
        K = Knew
        if diff <= tol * (1.0 + float(np.max(np.abs(K)))):
            return K, it, diff
    raise AssertionError("loop sweep did not converge")


def _loop_boundary_traces(kg):
    M = kg.K.shape[0] - 1
    delta, q, K = kg.delta, kg.q, kg.K
    js = np.arange(M % 2, M + 1, 2)
    K1, K2 = np.empty(js.size), np.empty(js.size)
    for out_i, j in enumerate(js):
        qa_plus, qa_minus = q[(M + j) // 2], q[(M - j) // 2]
        ls = np.arange(M - j, M + 1)
        I1 = trapezoid(q[ls] * K[ls, ls - (M - j)], dx=delta)
        b = M - j
        ls = np.arange(b // 2, b + 1)
        I2 = trapezoid(q[ls] * K[ls, b - ls], dx=delta)
        c = M + j
        ls = np.arange(c // 2, M + 1)
        I3 = trapezoid(q[ls] * K[ls, c - ls], dx=delta)
        K1[out_i] = 0.25 * (qa_plus - qa_minus) + 0.5 * (I1 - I2 + I3)
        K2[out_i] = 0.25 * (qa_plus + qa_minus) + 0.5 * (-I1 + I2 + I3)
    return js * delta, K1, K2


SWEEP_CASES = [(name, div) for name in ("colton_example", "raised_cosine", "slow_core")
               for div in (8, 60)]          # M = 16 (the minimum n = 8) and M = 120


@pytest.mark.parametrize("name,div", SWEEP_CASES)
def test_march_matches_loop_sweep(name, div):
    # the march sums in another order than the loop's fixed point, so K agrees to rounding
    lv = liouville_transform(get_profile(name))
    kg = solve_kernel(lv, h=lv.a / div)
    K, _, final_delta = _loop_solve_kernel(lv, h=lv.a / div)
    scale = np.max(np.abs(K))
    assert kg.K.shape == K.shape
    assert np.max(np.abs(kg.K - K)) <= 1e-14 * scale
    assert kg.iterations == 1                # the one verifying sweep
    for update in (kg.final_delta, final_delta):
        assert update <= 1e-12 * (1.0 + scale)


def test_march_off_at_one_node_fails_the_check(monkeypatch, capsys, colton_lv):
    march = kernel._march

    def off(*args):
        L = march(*args)
        L[3, 40] += 1e-6                     # t > 0: column 40 holds rows p < 20
        return L

    monkeypatch.setattr(kernel, "_march", off)
    with pytest.raises(NoConvergence, match="kernel march residual 1.000e-06"):
        solve_kernel(colton_lv, h=colton_lv.a / 200)
    assert main(["kernel-check", "--profile", "colton_example"]) == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


def test_march_leaves_its_inputs_and_repeats_bit_for_bit(colton_lv):
    # the march works in place on its own workspace: q and Q/2 stay as they were
    M = 400
    delta = colton_lv.a / M
    q = np.asarray(colton_lv.q(np.linspace(0.0, colton_lv.a, M + 1)), dtype=float)
    Qh = 0.5 * kernel._cumtrapz(q, delta)
    q0, Qh0 = q.tobytes(), Qh.tobytes()
    first = kernel._march(q, Qh, delta)
    assert q.tobytes() == q0 and Qh.tobytes() == Qh0
    assert first.shape == (M // 2 + 1, M + 1)
    assert kernel._march(q, Qh, delta).tobytes() == first.tobytes()


def test_non_finite_potential_is_an_input_error(colton_lv):
    def q(x):
        v = np.array(colton_lv.q(x), dtype=float)
        v[np.asarray(x) > 0.5] = np.nan
        v[-1] = np.inf
        return v

    j = int(np.argmax(np.linspace(0.0, colton_lv.a, 801) > 0.5))
    with pytest.raises(ValueError, match=f"q is not finite at x = .* [(]sample {j} of 801[)]: nan"):
        solve_kernel(replace(colton_lv, q=q), h=colton_lv.a / 400)


def test_overflowing_kernel_fails_the_check(colton_lv):
    # W overflows to inf on the first columns; no RuntimeWarning escapes
    # (the test config makes one an error), and the residual check fails
    huge = replace(colton_lv, q=lambda x: np.full(np.shape(x), 1e200))
    with pytest.raises(NoConvergence, match="kernel march residual (nan|inf)"):
        solve_kernel(huge, h=huge.a / 400)


@pytest.mark.parametrize("name", ["colton_example", "slow_core"])
def test_full_grid_is_built_on_demand(name):
    lv = liouville_transform(get_profile(name))
    kg = solve_kernel(lv, h=lv.a / 8)
    kg.diagonal_residual()
    representation_boundary(kg, np.array([1.0, 7.3]))
    assert "K" not in vars(kg)
    K_loop = _loop_solve_kernel(lv, h=lv.a / 8)[0]
    i, j = np.indices(K_loop.shape)
    odd = ((i + j) % 2 == 1) & (j > 0) & (j < i)
    assert np.max(np.abs(kg.K - K_loop)[odd]) <= 1e-14 * np.max(np.abs(K_loop))
    assert np.all(kg.K[odd] == 0.5 * (np.roll(kg.K, 1, axis=1) + np.roll(kg.K, -1, axis=1))[odd])
    assert np.all(kg.K[:, 0] == 0.0) and np.all(kg.K[j > i] == 0.0)


@pytest.mark.parametrize("name,div", SWEEP_CASES)
def test_traces_match_loop_traces(name, div):
    lv = liouville_transform(get_profile(name))
    kg = solve_kernel(lv, h=lv.a / div)
    for new, old in zip(boundary_traces(kg), _loop_boundary_traces(kg)):
        assert new.shape == old.shape
        assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))


def test_diagonal_reference_is_the_q_series_antiderivative(colton_lv):
    # the reference F(r(x)), F' = q sqrt(eta) in r, samples no q; colton has q = 1/4
    calls = []

    def q(x):
        calls.append(np.size(x))
        return 0.25 + 0.1 * np.asarray(x) ** 2

    kg = solve_kernel(replace(colton_lv, q=q), h=colton_lv.a / 50)
    M = kg.x.size - 1
    assert calls == [M + 1]                 # the solve samples the grid only
    r = colton_lv.profile.cumulative_map().inverse(kg.x)
    F = colton_lv.q_series.integ(lbnd=0.0)(r)
    assert np.max(np.abs(F - 0.25 * kg.x)) <= 1e-13
    expected = float(np.max(np.abs(2.0 * np.diagonal(kg.K) - F)))
    assert kg.diagonal_residual() == expected
    assert kg.diagonal_residual() == expected
    assert calls == [M + 1]                 # the check makes no q call
    # the kernel of the other q misses the reference by int 0.1 x^2: the check fails
    assert expected == pytest.approx(0.1 * kg.a ** 3 / 3.0, rel=1e-3)
    assert expected > 5e-4


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
def test_solve_kernel_rejects_a_bad_resolution(colton_lv, h):
    with pytest.raises(ValueError, match="h must be finite and positive"):
        solve_kernel(colton_lv, h)
