import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid
from scipy.interpolate import RegularGridInterpolator

from tevp import kernel
from tevp.cli import EXIT_NUMERIC, main
from tevp.errors import NoConvergence
from tevp.forward import solve_ivp
from tevp.kernel import (boundary_traces, identity_checks, representation_boundary,
                         solve_kernel)
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


def _full_lattice_sweep(L, q, Q, delta):
    """(residual, max|L|) of one sweep over the whole (n+1, 2n+1) lattice at once, with
    full-lattice temporaries: the reference for the block sweep ``kernel._sweep``."""
    n = L.shape[0] - 1
    M1 = 2 * n + 1

    def lattice():
        buf = np.zeros((n + 1) * M1 + n)
        V = as_strided(buf, shape=(n + 1, M1), strides=((M1 + 1) * buf.itemsize, buf.itemsize))
        return buf[:(n + 1) * M1].reshape(n + 1, M1), V

    (W, WV), (Knew, KnewV) = lattice(), lattice()
    np.cumsum(L[::-1], axis=0, out=W[::-1])
    W -= 0.5 * L
    W *= delta * delta * q
    np.cumsum(WV, axis=0, out=KnewV)
    KnewV += 0.5 * Q + _loop_cumtrapz(W[0], 1.0) - 0.5 * W[0]
    KnewV -= np.diagonal(KnewV).copy()[:, None]
    Knew -= np.cumsum(W, axis=1, out=W)
    t_pos = np.arange(M1) > 2 * np.arange(n + 1)[:, None]
    Knew -= L
    return float(np.max(np.abs(Knew), where=t_pos, initial=0.0)), float(np.max(np.abs(L)))


def _march_inputs(lv, n):
    M = 2 * n
    delta = lv.a / M
    q = np.asarray(lv.q(np.linspace(0.0, lv.a, M + 1)), dtype=float)
    Q = kernel._cumtrapz(q, delta)
    return kernel._march(q, 0.5 * Q, delta), q, Q, delta


KERNEL_PROFILES = ("colton_example", "raised_cosine", "slow_core", "const4")


@pytest.mark.parametrize("name", KERNEL_PROFILES)
@pytest.mark.parametrize("n", [8, 60, 200, 400])
@pytest.mark.parametrize("rows", [None, 7])
def test_block_sweep_matches_the_full_lattice_sweep(monkeypatch, name, n, rows):
    # rows None: the block height of the byte budget (one block at n = 8 and 60, 81 rows
    # at n = 200, 40 at n = 400); 7 rows leave a short last block at every n
    if rows is not None:
        monkeypatch.setattr(kernel, "_SWEEP_POINTS", rows * (2 * n + 1))
    height = kernel._SWEEP_POINTS // (2 * n + 1)
    assert rows is None or (height == rows and (n + 1) % rows)
    args = _march_inputs(liouville_transform(get_profile(name)), n)
    residual, size = kernel._sweep(*args)
    ref_residual, ref_size = _full_lattice_sweep(*args)
    assert size == ref_size
    assert abs(residual - ref_residual) <= 1e-15 * (1.0 + ref_size)
    assert residual <= 1e-12 * (1.0 + size)


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


_ROWS = kernel._SWEEP_POINTS // 401     # the sweep's block height at n = 200 (M = 400)


def test_march_off_at_one_node_fails_the_check(monkeypatch, capsys, colton_lv):
    march = kernel._march
    nodes = [(3, 40),                     # t > 0: column 40 holds rows p < 20
             (_ROWS, 2 * _ROWS + 1),      # the first live column of the second block
             (_ROWS - 1, 300),            # the last row of the first block ...
             (_ROWS, 300),                # ... and the first row of the second
             (199, 400),                  # the last row with t > 0, at the last column
             (2 * _ROWS + 5, 400)]        # the last column, in the last block
    for node in nodes:
        def off(*args, node=node):
            L = march(*args)
            L[node] += 1e-6
            return L

        monkeypatch.setattr(kernel, "_march", off)
        with pytest.raises(NoConvergence, match="kernel march residual 1.000e-06"):
            solve_kernel(colton_lv, h=colton_lv.a / 200)
        assert main(["kernel-check", "--profile", "colton_example"]) == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err


def test_nan_at_one_node_of_the_last_block_fails_the_check(monkeypatch, colton_lv):
    # a maximum taken by Python's max() drops a NaN that is not its first argument
    march = kernel._march

    def off(*args):
        L = march(*args)
        L[199, 399] = np.nan
        return L

    monkeypatch.setattr(kernel, "_march", off)
    assert 199 // _ROWS == 200 // _ROWS >= 1      # row 199 lies in the last block of several
    with pytest.raises(NoConvergence, match="kernel march residual nan"):
        solve_kernel(colton_lv, h=colton_lv.a / 200)


def test_sweep_needs_little_more_than_the_lattice(colton_lv):
    # the check's scratch is two blocks of rows, not full-lattice temporaries
    tracemalloc.start()
    try:
        kg = solve_kernel(colton_lv, h=colton_lv.a / 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * kg.L.nbytes


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


def test_identity_checks_report_each_k_against_one_ivp_call(monkeypatch, colton_lv):
    calls = []
    monkeypatch.setattr(kernel, "solve_ivp",
                        lambda *args, **kwargs: calls.append(args[1]) or solve_ivp(*args, **kwargs))
    checks, grids, errors = identity_checks(colton_lv)
    assert calls == list(errors) == [1.0, math.pi, 7.3, 15.0]
    assert [g.x.size - 1 for g in grids] == [400, 800]
    (_, diag, diag_bound), (_, worst, bound) = checks
    assert diag == grids[1].diagonal_residual() <= diag_bound == 5e-4
    assert worst == max(max(e) for e in errors.values()) <= bound == 1e-5
