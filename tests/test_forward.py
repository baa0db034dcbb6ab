import cmath
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy.integrate import solve_ivp as scipy_solve_ivp

from tevp import _rk8, forward
from tevp.errors import StepUnderflow
from tevp.forward import (_DEGREE, _integrate_batch, _rk8_polynomials, _step_polynomials,
                          characteristic, characteristic_batch, scaled_characteristic,
                          grid_steps, solve_ivp)
from tevp.profiles import ConstantProfile, get_profile, liouville_transform, travel_time
from tevp.zeros import _d_service, find_zeros


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
    d_s, dp_s, _ = characteristic_batch(CONST4, ks)
    ld = dp_s / d_s
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
    d, dp, _, _, log_factor = _colton_closed_form(ks)
    for i, k in enumerate(ks):
        cv = characteristic(colton, complex(k), tol=1e-13)
        for got, ld in ((d_s[i] * np.exp(scale[i] - log_factor[i]), dp_s[i] / d_s[i]),
                        (cv.d * np.exp(cv.scale_log - log_factor[i]), cv.d_prime / cv.d)):
            assert abs(got - d[i]) / abs(d[i]) < 1e-9
            assert abs(ld - dp[i] / d[i]) / abs(dp[i] / d[i]) < 1e-8


@pytest.mark.parametrize("size", [1, 64, 1024, 4096])
def test_batch_matches_colton_closed_form(colton, size):
    # small batches run in long blocks of steps, large ones in short blocks
    k = np.linspace(1.0, 150.0, size) + 1j * np.array([0.0, 2.0, 8.0])[np.arange(size) % 3]
    d_s, dp_s, scale = characteristic_batch(colton, k)
    d, dp, size_d, size_dp, log_factor = _colton_closed_form(k)
    factor = np.exp(scale - log_factor)
    assert np.max(np.abs(d_s * factor - d) / size_d) <= 1e-11
    assert np.max(np.abs(dp_s * factor - dp) / size_dp) <= 1e-11


def _equal_phase_nodes(profile, n_steps):
    """The edges r_i = x^-1(i a / n_steps) of n_steps steps of equal optical depth."""
    cum = profile.cumulative_map()
    r = cum.inverse(np.linspace(0.0, cum.total, n_steps + 1))
    r[0], r[-1] = 0.0, 1.0
    return r


def _one_step_at_a_time(profile, k, n_steps):
    """The state (y, y', v, v') at r = 1 and its log scale, one RK8 step polynomial per step."""
    growth = travel_time(profile) * np.abs(k.imag).max() / n_steps
    return _integrate_batch(_step_polynomials(profile, _equal_phase_nodes(profile, n_steps)),
                            k, growth)


@pytest.mark.parametrize("name", ["colton_example", "slow_core"])
@pytest.mark.parametrize("size", [1, 64, 600])
def test_composed_steps_match_one_step_at_a_time(name, size):
    # the search grid density, n_steps not a multiple of the 8 steps composed; a k
    # below _SMALL_K and one whose growth forces rescaling between blocks; 600
    # points run in one engine call
    profile = get_profile(name)
    n_steps = 8 * (grid_steps(profile, 260.0, 3.5) // 8) + 3
    special = np.array([5e-4, 20.0 + 250.0j])
    assert abs(special[0]) < forward._SMALL_K
    if size == 1:
        batches = [special[:1], special[1:], np.array([37.0]), np.array([90.0 + 3.0j])]
    else:
        k = np.linspace(0.5, 140.0, size) + 1j * np.array([0.0, 2.0, 8.0])[np.arange(size) % 3]
        batches = [np.r_[special, k[2:]]]
    for k in batches:
        d_s, dp_s, scale = characteristic_batch(profile, k, n_steps=n_steps)
        u, log_scale = _one_step_at_a_time(profile, k, n_steps)
        if k[0] == special[1]:                # both engines rescaled between blocks
            assert log_scale[0] > 0.0 and scale[0] > abs(k[0].imag)
        trig = forward._scaled_trig(k)
        d_ref, dp_ref = forward._characteristic_from(u, trig)
        factor = np.exp(scale - log_scale - np.abs(k.imag))
        d, dp = d_s * factor, dp_s * factor
        # d and d' are sums of terms of the state's size; near k = 0 and at large
        # |Im k| they cancel, so agreement is measured against those terms
        y1, dy1, v1, dv1 = np.abs(u)
        sin_s, cos_s, sinc_s, sprime_s = map(np.abs, trig)
        size_d = dy1 * sinc_s + y1 * cos_s
        size_dp = dv1 * sinc_s + dy1 * sprime_s + v1 * cos_s + y1 * sin_s
        assert np.all(np.abs(d - d_ref) <= 1e-12 * size_d)
        assert np.all(np.abs(dp - dp_ref) <= 1e-12 * size_dp)
        ld_ref = dp_ref / d_ref
        assert np.all(np.abs(dp / d - ld_ref) * np.abs(d_ref)
                      <= 1e-12 * (size_dp + (1.0 + np.abs(ld_ref)) * size_d))


def _row_loop(coef, k, lam_scale=1.0):
    """The engine's row loop alone: rows evaluated as the engine evaluates them, then
    u <- P u, v <- P v + P' u one row at a time, the state rescaled by a power of two
    (exactly) after every row."""
    degree, group = coef.shape[-1] - 1, coef.shape[2:-1]
    powers = np.zeros((degree + 1, 2 * k.size), dtype=complex)    # mu^p, then d(mu^p)/dk
    powers[0, :k.size] = 1.0
    np.cumprod(np.broadcast_to(lam_scale * k * k, (degree, k.size)), 0, out=powers[1:, :k.size])
    np.multiply((2.0 * lam_scale * np.arange(1, degree + 1))[:, None] * k,
                powers[:-1, :k.size], out=powers[1:, k.size:])
    state = np.zeros((4,) + group + k.shape, dtype=complex)
    state[1] = 1.0
    exponent = np.zeros(group + k.shape, dtype=int)
    for row in coef:
        m = (row.reshape(-1, degree + 1) @ powers.view(float)).view(complex)
        m = m.reshape((2, 2) + group + (2 * k.size,))
        P, dP, u, v = m[..., :k.size], m[..., k.size:], state[:2], state[2:]
        state = np.concatenate([P[:, 0] * u[0] + P[:, 1] * u[1],
                                P[:, 0] * v[0] + P[:, 1] * v[1] + dP[:, 0] * u[0] + dP[:, 1] * u[1]])
        e = np.frexp(np.abs(state).max(axis=0))[1]
        state *= 2.0 ** -e
        exponent += e
    return state, exponent * math.log(2.0)


def _same_state(got, ref):
    """True when two (state, log scale) pairs agree to 1e-13 of each column's largest entry."""
    (u, u_log), (r, r_log) = got, ref
    common = np.maximum(u_log, r_log)
    u, r = u * np.exp(u_log - common), r * np.exp(r_log - common)
    return bool(np.all(np.abs(u - r).max(axis=0) <= 1e-13 * np.abs(r).max(axis=0)))


def _random_rows(rng, n_rows, group=()):
    """Rows I + X of degree 3 in mu, X random and about 0.3: no two of them commute."""
    coef = 0.3 * rng.standard_normal((n_rows, 4) + group + (4,)) / [1.0, 1.0, 2.0, 6.0]
    coef[:, [0, 3], ..., 0] += 1.0
    return coef


def _random_k(rng, size):
    """``size`` complex k of modulus about 0.5, so that |mu| = |k|^2 stays below 1."""
    return 0.35 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


@pytest.mark.parametrize("n_rows", [1, 2, 3, 8, 73])
@pytest.mark.parametrize("size", [1, 64])
def test_folded_rows_match_the_row_loop(n_rows, size):
    # up to _BLOCK_COLUMNS columns, a row advances the state by one block product
    # [[P, 0], [P', P]]: a block with P' above the diagonal, or P' and P swapped, fails;
    # 73 rows of 64 columns run in 5 blocks
    assert size <= forward._BLOCK_COLUMNS
    rng = np.random.default_rng(100 * n_rows + size)
    coef, k = _random_rows(rng, n_rows), _random_k(rng, size)
    assert _same_state(_integrate_batch(coef, k, 0.5), _row_loop(coef, k))


def test_folded_rows_of_two_equations_match_the_row_loop():
    # G = 2 equations side by side, as the x-form runs them: 64 columns, block products
    rng = np.random.default_rng(2)
    coef, k = _random_rows(rng, 73, group=(2,)), _random_k(rng, 32)
    assert _same_state(_integrate_batch(coef, k, 0.5), _row_loop(coef, k))


def test_folded_blocks_are_renormalised_between_them(colton):
    # |Im k| = 250 grows the state by about exp(275) over 73 rows of 8 steps: the
    # growth bound cuts them into blocks of block products, and the state is rescaled
    # between them
    n_steps, k = 581, np.array([20.0 + 250.0j])
    coef, unit = forward._composed_steps(colton, n_steps), forward._mu_unit(colton, n_steps)
    growth = forward._GROUP * travel_time(colton) / n_steps * abs(k[0].imag)
    assert forward._BLOCK_GROWTH / growth < len(coef) / 2     # 3 blocks of at most 30 rows
    got = _integrate_batch(coef, k, growth, lam_scale=unit ** 2)
    assert got[1][0] > 0.0
    assert _same_state(got, _row_loop(coef, k, unit ** 2))


def _shot_d(profile, k, n_steps, disk=None):
    """The state, its log scale, d and d' (scaled) and the sizes of their terms."""
    u, log_scale = forward._shoot(profile, k, n_steps, disk)
    trig = forward._scaled_trig(k)
    y1, dy1, v1, dv1 = np.abs(u)
    sin_s, cos_s, sinc_s, sprime_s = map(np.abs, trig)
    return (u, log_scale, *forward._characteristic_from(u, trig), dy1 * sinc_s + y1 * cos_s,
            dv1 * sinc_s + dy1 * sprime_s + v1 * cos_s + y1 * sin_s)


def test_folded_and_looped_batches_agree(colton, monkeypatch):
    # up to _BLOCK_COLUMNS k advance each row by one block product, more by the row loop.
    # Both add each entry's terms in one order, so 300 k run whole (row loop) and 64 at a
    # time (block products) agree bit for bit, state and log scale, and so does either
    # batch with the other update forced on it
    x, y = np.meshgrid(np.linspace(145.0, 150.5, 20), np.linspace(0.0, 8.0, 15))
    k = (x + 1j * y).ravel()
    few = 64
    assert few <= forward._BLOCK_COLUMNS < k.size

    def parts():
        runs = [forward._shoot(colton, k[i:i + few], 581) for i in range(0, k.size, few)]
        return tuple(np.concatenate(z, axis=-1) for z in zip(*runs))

    looped, blocked = forward._shoot(colton, k, 581), parts()
    monkeypatch.setattr(forward, "_BLOCK_COLUMNS", k.size)
    whole_blocked = forward._shoot(colton, k, 581)
    monkeypatch.setattr(forward, "_BLOCK_COLUMNS", 0)
    for got in (blocked, whole_blocked, parts()):
        assert all(np.array_equal(a, b) for a, b in zip(got, looped))


def test_large_batch_is_one_engine_call(colton, monkeypatch):
    # 600 k, more than the 512 the engine once took per call: one call, and each k's
    # state matches the same k run in two calls to 1e-13 of its largest entry
    x, y = np.meshgrid(np.linspace(0.5, 150.5, 60), np.linspace(0.0, 8.0, 10))
    k = (x + 1j * y).ravel()
    calls = []
    engine = forward._integrate_batch
    monkeypatch.setattr(forward, "_integrate_batch",
                        lambda coef, k, *args, **kwargs: calls.append(k.size)
                        or engine(coef, k, *args, **kwargs))
    whole = forward._shoot(colton, k, 581)
    assert calls == [600]
    parts = [forward._shoot(colton, k[:512], 581), forward._shoot(colton, k[512:], 581)]
    assert _same_state(whole, tuple(np.concatenate(z, axis=-1) for z in zip(*parts)))


@pytest.mark.parametrize("n_steps", [0, -3, 2.5, "64", True])
def test_characteristic_batch_rejects_a_bad_step_count(colton, n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        characteristic_batch(colton, [1.0 + 1.0j], n_steps=n_steps)


@pytest.mark.parametrize("n_steps", [0, -3, 2.5, True])
def test_scaled_characteristic_rejects_a_bad_step_count(colton, n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        scaled_characteristic(colton, [1.0 + 1.0j], n_steps=n_steps)


def _full_degree(size, mu_max):
    """A stand-in for ``forward._degree_needed`` that keeps every degree."""
    return size.shape[-1] - 1


@pytest.mark.parametrize("name", ["colton_example", "raised_cosine"])
def test_degree_rule_keeps_every_degree_at_large_mu(name):
    # k = 400 over 64 steps: a phase of 400 a / 64 ~ 7 rad per step, where the top terms
    # dominate; mu is (k u)^2, u the phase per step at k = 1 rounded to a power of two
    profile = get_profile(name)
    _, size = forward._composed_table(profile, 64)
    assert 400.0 * travel_time(profile) / 64 > 6.5
    assert forward._degree_needed(size, (400.0 * forward._mu_unit(profile, 64)) ** 2) == 8 * _DEGREE


@pytest.mark.parametrize("rect", [(0.3, 40.0, 0.0, 6.0), (145.0, 150.5, 0.0, 8.0),
                                  (0.3, 150.5, 0.0, 8.0)])
def test_search_grids_need_low_degree(colton, rect):
    # the k40 and headline searches' uncentred tables, cut once at the edge of their
    # _d_service disk, need at most a third of the 48 degrees of a row.  band150's
    # centred rows take eps = (k^2 - c^2) u^2 to the first power where the uncentred
    # ones took (k u)^2 squared, so they need about twice as many (21 to 24), half of 48
    table = find_zeros(colton, rect).stats["table"]
    centred = table["steps_per_row"] > 8
    assert centred == (rect[0] == 145.0)
    assert 0 < table["degree"] <= (24 if centred else 16)


@pytest.mark.parametrize("profile", [get_profile("colton_example"), get_profile("slow_core"),
                                     CONST4], ids=lambda p: p.name)
def test_truncated_rows_match_full_degree(profile, monkeypatch):
    # the k sets of test_composed_steps_match_one_step_at_a_time: a k below
    # _SMALL_K, one that rescales between blocks, single points and a 600-point batch
    n_steps = 8 * (grid_steps(profile, 260.0, 3.5) // 8) + 3
    special = np.array([5e-4, 20.0 + 250.0j])
    assert abs(special[0]) < forward._SMALL_K
    k = np.linspace(0.5, 140.0, 600) + 1j * np.array([0.0, 2.0, 8.0])[np.arange(600) % 3]
    batches = [special[:1], special[1:], np.array([37.0]), np.array([90.0 + 3.0j]),
               np.r_[special, k[2:62]], np.r_[special, k[2:]]]
    for k in batches:
        u, log_scale = forward._shoot(profile, k, n_steps)
        with monkeypatch.context() as m:
            m.setattr(forward, "_degree_needed", _full_degree)
            u_full, log_full = forward._shoot(profile, k, n_steps)
        common = np.maximum(log_scale, log_full)
        u, u_full = u * np.exp(log_scale - common), u_full * np.exp(log_full - common)
        trig = forward._scaled_trig(k)
        d, dp = forward._characteristic_from(u, trig)
        d_full, dp_full = forward._characteristic_from(u_full, trig)
        y1, dy1, v1, dv1 = np.abs(u_full)
        sin_s, cos_s, sinc_s, sprime_s = map(np.abs, trig)
        assert np.all(np.abs(d - d_full) <= 1e-13 * (dy1 * sinc_s + y1 * cos_s))
        assert np.all(np.abs(dp - dp_full)
                      <= 1e-13 * (dv1 * sinc_s + dy1 * sprime_s + v1 * cos_s + y1 * sin_s))


@pytest.mark.parametrize("fixture, rect", [("colton_spectrum_40", (0.3, 40.0, 0.0, 6.0)),
                                           ("colton_band_150", (145.0, 150.5, 0.0, 8.0))])
def test_searches_do_not_see_the_degree_rule(request, colton, monkeypatch, fixture, rect):
    rep = request.getfixturevalue(fixture)
    monkeypatch.setattr(forward, "_degree_needed", _full_degree)
    forward._composed_table.cache_clear()      # a search's table is cut to its degree when built
    try:
        full = find_zeros(colton, rect)
    finally:
        forward._composed_table.cache_clear()
    assert [z.multiplicity for z in full.zeros] == [z.multiplicity for z in rep.zeros]
    assert full.stats["evals"] == rep.stats["evals"]
    for z, z_full in zip(rep.zeros, full.zeros):
        assert abs(z.k - z_full.k) <= 1e-12 * (1.0 + abs(z.k))


def _composed_steps_one_shot(profile, n_steps):
    """``forward._composed_steps`` as it was before it built slice by slice."""
    unit = 2.0 ** -round(math.log2(n_steps / travel_time(profile)))
    scale = unit ** (-2 * np.arange(_DEGREE + 1))
    coef = _step_polynomials(profile, _equal_phase_nodes(profile, n_steps)) * scale
    eye = np.eye(2).reshape(4, 1) * (np.arange(_DEGREE + 1) == 0)
    pad = np.broadcast_to(eye, (-n_steps % 8,) + eye.shape)
    m = np.concatenate([coef, pad]).reshape(-1, 2, 2, _DEGREE + 1)
    for _ in range(3):
        a, b = m[0::2], m[1::2]
        m = np.zeros(a.shape[:-1] + (2 * a.shape[-1] - 1,))
        for p in range(b.shape[-1]):
            m[..., p:p + a.shape[-1]] += np.einsum("nij,njkq->nikq", b[..., p], a)
    return m.reshape(len(m), 4, -1)


@pytest.mark.parametrize("name", ["colton_example", "raised_cosine", "slow_core"])
@pytest.mark.parametrize("chunk", [5, forward._BUILD_CHUNK])
def test_composed_steps_built_in_slices_are_bit_identical(name, chunk, monkeypatch):
    # 1,003 steps: 25 slices of 40 steps and a padded one with chunk 5, one slice by default
    profile = get_profile(name)
    old = _composed_steps_one_shot(profile, 1003)
    monkeypatch.setattr(forward, "_BUILD_CHUNK", chunk)
    assert forward._composed_steps(profile, 1003).tobytes() == old.tobytes()


@pytest.mark.parametrize("name", ["colton_example", "raised_cosine", "slow_core"])
def test_a_disk_that_gains_no_longer_rows_keeps_the_uncentred_table(name):
    # no disk, and a disk too wide for rows of 16 steps, both give the table of 8
    # steps per row in mu = (k u)^2 that the engine has always used, byte for byte
    profile = get_profile(name)
    old = _composed_steps_one_shot(profile, 1003).tobytes()
    disk = (500.0, 600.0)
    assert forward._table_shape(profile, 1003, disk) == (0.0, 1100.0, 8)
    assert forward._composed_steps(profile, 1003).tobytes() == old
    assert forward._composed_steps(profile, 1003, disk).tobytes() == old


def _disk_nodes(centre, radius):
    """Rings out to the rim of the disk |k - centre| <= radius, and a row just below
    the real axis across it."""
    rings = centre + radius * np.array([0.0, 0.3, 0.7, 0.95, 1.0 - 1e-12])[:, None] \
        * np.exp(2j * np.pi * np.arange(16) / 16)
    return np.r_[rings.ravel(), np.linspace(centre - radius, centre + radius, 9)[1:-1] - 1e-3j]


@pytest.mark.parametrize("name", ["colton_example", "raised_cosine", "slow_core", "const4"])
@pytest.mark.parametrize("rect", [(145.0, 150.5, -8.0, 8.0), (995.0, 1000.5, -12.0, 12.0)],
                         ids=["band150", "far_band"])
def test_centred_table_matches_the_uncentred_engine(name, rect):
    # on the disk and grid a search would use, the centred rows of 128 or 512 steps
    # move d and d' by less, against the size of their terms, than the uncentred
    # engine's own n-vs-2n difference does at a typical node of the disk
    profile = get_profile(name)
    table = _d_service(profile, rect).stats["table"]
    n_steps, disk = table["n_steps"], (table["centre"], table["radius"])
    assert table["steps_per_row"] >= 128
    assert disk[0] == pytest.approx(0.5 * (rect[0] + rect[1]) + 0.04)   # the widest padded rect's
    k = _disk_nodes(*disk)
    _, log_c, d_c, dp_c = _shot_d(profile, k, n_steps, disk)[:4]
    _, log_n, d_n, dp_n, size_d, size_dp = _shot_d(profile, k, n_steps)
    _, log_2n, d_2n, dp_2n = _shot_d(profile, k, 2 * n_steps)[:4]
    to_n, to_2n = np.exp(log_c - log_n), np.exp(log_2n - log_n)
    for got, ref, fine, size in ((d_c, d_n, d_2n, size_d), (dp_c, dp_n, dp_2n, size_dp)):
        centring = np.abs(got * to_n - ref) / size
        assert centring.max() <= np.median(np.abs(fine * to_2n - ref) / size)


def test_a_k_outside_the_disk_is_rejected(colton):
    # the centred rows drop the degrees the disk never needs: a k outside it is refused
    assert forward._table_shape(colton, 581, (147.79, 8.77))[2] == 128
    with pytest.raises(ValueError, match=r"k = \(156\.6\+0j\) lies outside the disk "
                                         r"\|k - 147\.79\| <= 8\.77 of its table"):
        characteristic_batch(colton, [150.0 + 8.0j, 156.6], n_steps=581, disk=(147.79, 8.77))


@pytest.mark.parametrize("disk", [(147.79, 0.0), (147.79, -1.0), (math.nan, 8.0),
                                  (147.79, math.inf)])
def test_characteristic_batch_rejects_a_bad_disk(colton, disk):
    with pytest.raises(ValueError, match="disk must be a real centre and a positive radius"):
        characteristic_batch(colton, [150.0], n_steps=581, disk=disk)


def test_composed_steps_build_needs_little_more_than_the_table(colton):
    tracemalloc.start()
    try:
        table = forward._composed_steps(colton, 16_384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * table.nbytes


def _step_polynomials_before_x_form(profile, n_steps, degree=_DEGREE):
    """The r-form builder as it was before it took stage samples and widths, on the
    equal-phase grid."""
    r = _equal_phase_nodes(profile, n_steps)
    h = np.diff(r)
    A, B, C = _rk8.A, _rk8.B, _rk8.C
    eye = np.eye(2)[:, :, None] * (np.arange(degree + 1) == 0)
    out = np.empty((n_steps, 4, degree + 1))
    for start in range(0, n_steps, 128):
        i = np.arange(start, min(start + 128, n_steps))
        hi = h[i, None, None, None]
        eta = np.asarray(profile.eta(np.clip(r[i, None] + C * h[i, None], 0.0, 1.0)),
                         dtype=float)
        stages = []
        step = np.broadcast_to(eye, (i.size,) + eye.shape).copy()
        for s in range(_rk8.N_STAGES):
            w = np.broadcast_to(eye, step.shape).copy()
            for j in np.nonzero(A[s, :s])[0]:
                w += (hi * A[s, j]) * stages[j]
            f = np.zeros_like(w)
            f[:, 0] = w[:, 1]
            f[:, 1, :, 1:] = -eta[:, s, None, None] * w[:, 0, :, :-1]
            stages.append(f)
            if B[s]:
                step += (hi * B[s]) * f
        out[i] = step.reshape(i.size, 4, degree + 1)
    return out


@pytest.mark.parametrize("name", ["colton_example", "raised_cosine", "slow_core"])
def test_r_form_step_polynomials_bit_identical(name):
    # the r-form (c = eta, s = 0) of the generalized builder must not move the search
    profile = get_profile(name)
    for n_steps in (64, 129, 700):
        old = _step_polynomials_before_x_form(profile, n_steps)
        new = _step_polynomials(profile, forward._step_nodes(profile, n_steps))
        assert new.tobytes() == old.tobytes()


def _rk8_polynomials_per_entry(c, h, s):
    """``forward._rk8_polynomials`` as it was when it added one tableau entry at a time."""
    eye = np.eye(2)[:, :, None] * (np.arange(_DEGREE + 1) == 0)
    out = np.empty((len(h), 4, _DEGREE + 1))
    for start in range(0, len(h), 128):
        i = slice(start, start + 128)
        hi = h[i, None, None, None]
        stages = []
        step = np.broadcast_to(eye, (len(hi),) + eye.shape).copy()
        for st in range(_rk8.N_STAGES):
            w = np.broadcast_to(eye, step.shape).copy()
            for j in np.nonzero(_rk8.A[st, :st])[0]:
                w += (hi * _rk8.A[st, j]) * stages[j]
            f = np.zeros_like(w)
            f[:, 0] = w[:, 1]
            f[:, 1, :, 1:] = -c[i, st, None, None] * w[:, 0, :, :-1]
            f[:, 1] += s[i, st, None, None] * w[:, 0]
            stages.append(f)
            if _rk8.B[st]:
                step += (hi * _rk8.B[st]) * f
        out[i] = step.reshape(-1, 4, _DEGREE + 1)
    return out


@pytest.mark.parametrize("name", ["colton_example", "raised_cosine"])
def test_x_form_step_polynomials_match_the_per_entry_build(name):
    # the x-form (c = 1, s = q) of the stage-contraction builder; each entry and degree
    # is held to 1e-15 of its own largest |coefficient|, so small terms count too
    lv = liouville_transform(get_profile(name))
    for n_steps in (64, 129, 700):
        h = np.full(n_steps, lv.a / n_steps)
        q = lv.q(np.minimum((np.arange(n_steps)[:, None] + _rk8.C) * h[:, None], lv.a))
        old = _rk8_polynomials_per_entry(np.ones_like(q), h, q)
        new = _rk8_polynomials(np.ones_like(q), h, q)
        assert np.all(np.abs(new - old) <= 1e-15 * np.abs(old).max(axis=0))


@pytest.mark.parametrize("size", [1, 12])
def test_x_form_matches_colton_closed_form(colton, colton_lv, size):
    # q == 1/4: phi = sin(mu x)/mu, phi' = cos(mu x), mu = sqrt(k^2 - 1/4)
    pinned = np.array([0.7, 5.0, 30.0 + 3.0j, 12.0 + 40.0j])
    others = np.linspace(1.0, 40.0, 8) + 1j * np.linspace(0.0, 6.0, 8)
    batches = [pinned[i:i + 1] for i in range(4)] if size == 1 else [np.r_[pinned, others]]
    a = colton_lv.a
    for k in batches:
        n_steps = int(np.ceil(8.0 * np.abs(k).max() * a))
        h = np.full(n_steps, a / n_steps)
        x = (np.arange(n_steps)[:, None] + _rk8.C) * h[:, None]
        q = colton_lv.q(np.minimum(x, a))
        coef = _rk8_polynomials(np.ones_like(q), h, q)
        growth = h[0] * (np.abs(k.imag).max() + 0.5)
        u, log_scale = _integrate_batch(coef, k, growth)
        mu = np.sqrt(k * k - 0.25)
        phi, dphi = np.sin(mu * a) / mu, np.cos(mu * a)
        scale = np.exp(log_scale)
        assert_allclose(u[0] * scale, phi, rtol=1e-11)
        assert_allclose(u[1] * scale, dphi, rtol=1e-11)


def test_adaptive_overflow_fallback_matches_dop853(colton):
    # a large |Im k|: d ~ exp((1 + a)|Im k|) ~ 1e237 here, near the end of the
    # float range; y itself stays representable, so DOP853 can check the engine
    k = 5.0 + 260.0j
    assert (1.0 + _A_COLTON) * k.imag > 545.0
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


def test_step_doubling_check_can_fail(colton, monkeypatch):
    # from 64 steps (error 7e-10 at k = 40) the n / 2n check runs four times
    monkeypatch.setattr(forward, "grid_steps", lambda *args: 64)
    d, _, _, _, log_factor = _colton_closed_form(40.0)
    cv = characteristic(colton, 40.0)
    assert cv.d * np.exp(cv.scale_log - log_factor) == pytest.approx(complex(d), rel=1e-11)
    monkeypatch.setattr(forward, "_MAX_STEPS", 128)
    with pytest.raises(StepUnderflow):
        characteristic(colton, 40.0)


def test_solve_ivp_array_matches_scalar_calls(colton):
    ks = np.array([0.5, 7.0, 20.0 + 3.0j, 35.0])
    bv = solve_ivp(colton, ks)
    assert bv.y1.shape == bv.dy1.shape == bv.scale_log.shape == ks.shape
    for i, k in enumerate(ks):
        one = solve_ivp(colton, k)
        for got, ref in ((bv.y1[i], one.y1), (bv.dy1[i], one.dy1)):
            assert got * np.exp(bv.scale_log[i]) == pytest.approx(ref * np.exp(one.scale_log),
                                                                  rel=1e-10, abs=1e-12)
    empty = solve_ivp(colton, np.zeros(0))
    assert empty.y1.size == empty.dy1.size == empty.scale_log.size == 0


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


def test_solve_ivp_boundary_values():
    # eta == 1: y = sin(kr)/k, y' = cos(kr)
    p1 = ConstantProfile(1.0)
    k = 3.7
    bv = solve_ivp(p1, k, tol=1e-13)
    assert bv.y1 * np.exp(bv.scale_log) == pytest.approx(math.sin(k) / k,
                                                         abs=1e-11)
    assert bv.dy1 * np.exp(bv.scale_log) == pytest.approx(math.cos(k),
                                                          abs=1e-11)


def test_tol_validation():
    with pytest.raises(ValueError):
        solve_ivp(CONST4, 1.0, tol=1e-3)
    with pytest.raises(ValueError):
        characteristic(CONST4, 1.0, tol=1e-16)


@pytest.mark.parametrize("n_steps", [None, 128])
def test_non_finite_k_is_rejected(colton, n_steps):
    # one NaN used to size the whole batch's degree (IndexError) or its grid
    for bad in (complex(math.nan, 0.0), complex(1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            characteristic_batch(colton, [1.0 + 1.0j, bad], n_steps=n_steps)


@pytest.mark.parametrize("bad", [math.inf, complex(math.nan, 0.0), complex(1.0, -math.inf)])
def test_solve_ivp_rejects_a_non_finite_k(colton, bad):
    # inf used to raise OverflowError and NaN a bare "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="k must be finite"):
        solve_ivp(colton, bad)
    with pytest.raises(ValueError, match="k must be finite"):
        solve_ivp(colton, [1.0 + 1.0j, bad])


@pytest.mark.parametrize("bad", [math.inf, complex(math.nan, 0.0), complex(1.0, -math.inf)])
def test_characteristic_rejects_a_non_finite_k(colton, bad):
    with pytest.raises(ValueError, match="k must be finite"):
        characteristic(colton, bad)


def test_batch_size_does_not_change_d(colton):
    # 64 k and the same 64 among 65: d and d' of one k once differed by 8.3e-12 and
    # 5.9e-11 relative, when small batches folded their rows pairwise and rescaled by
    # max |state|
    k = np.linspace(100.0, 120.0, 65) + 5.0j
    d65, dp65, log65 = characteristic_batch(colton, k, n_steps=800)
    d64, dp64, log64 = characteristic_batch(colton, k[:64], n_steps=800)
    factor = np.exp(log64 - log65[:64])
    assert np.max(np.abs(d64 * factor - d65[:64]) / np.abs(d65[:64])) <= 1e-13
    assert np.max(np.abs(dp64 * factor - dp65[:64]) / np.abs(dp65[:64])) <= 1e-13


@pytest.mark.parametrize("rect", [(145.0, 150.5, 0.0, 8.0), (0.3, 40.0, 0.0, 6.0)],
                         ids=["band150", "k40"])
def test_a_k_gets_the_same_bits_in_any_batch(colton, rect):
    # on a search's table a k's (d, d', scale_log) follows from the table and k alone:
    # bit for bit the same alone, among random companions on either side of the block
    # product's limit, and in the batch sizes a search and the bench use
    table = _d_service(colton, rect).stats["table"]
    n_steps, (centre, radius) = table["n_steps"], (table["centre"], table["radius"])
    rng = np.random.default_rng(38)
    k0 = rect[0] + 0.3 * (rect[1] - rect[0]) + 0.7j * rect[3]
    alone = characteristic_batch(colton, [k0], n_steps=n_steps, disk=(centre, radius))
    for size in (1, 2, 7, 64, 65, 128, 129, 1024, 4096):
        k = centre + radius * np.sqrt(rng.uniform(0.0, 0.98, size)) * np.exp(
            2j * np.pi * rng.uniform(size=size))
        at = rng.integers(size)
        k[at] = k0
        got = characteristic_batch(colton, k, n_steps=n_steps, disk=(centre, radius))
        assert all(np.array_equal(a[at], b[0]) for a, b in zip(got, alone)), size


def test_steps_scale_with_k():
    assert grid_steps(CONST4, 100.0, 8.0) >= 2 * grid_steps(CONST4, 50.0, 8.0) - 1
    assert grid_steps(CONST4, 0.1, 8.0) == 64   # floor


@pytest.mark.parametrize("name, n_steps", [("colton_example", 581), ("raised_cosine", 1003),
                                           ("slow_core", 64), ("constant", 219),
                                           ("colton_example", forward._MAX_STEPS)])
def test_steps_carry_equal_optical_depth(name, n_steps):
    profile = CONST4 if name == "constant" else get_profile(name)
    r = forward._step_nodes(profile, n_steps)
    assert r.shape == (n_steps + 1,)
    assert r[0] == 0.0 and r[-1] == 1.0 and np.all(np.diff(r) > 0.0)
    cum = profile.cumulative_map()
    assert np.abs(np.diff(cum(r)) - cum.total / n_steps).max() <= 1e-12 * cum.total


def test_grid_steps_count_phase_in_optical_depth(colton):
    # 3.5 steps per radian of k a, a = ln 3: the band150 search grid (705 when sized by
    # sqrt(max eta))
    assert grid_steps(colton, 150.88, 3.5) == 581
    assert grid_steps(colton, 40.0, 8.0) == math.ceil(8.0 * 40.0 * _A_COLTON)


def _d_long_double(profile, k, n_steps):
    """d_h on n_steps steps, ``_step_polynomials`` applied one step at a time in extended
    precision, and the size its terms y' sinc k and y cos k take when the state's
    rounding falls on either component: (|y'| + |k y|) (|sinc k| + |cos k / k|)."""
    coef = _step_polynomials(profile, forward._step_nodes(profile, n_steps))
    k = k.astype(np.clongdouble)
    powers = np.cumprod(np.broadcast_to(k * k, (_DEGREE, k.size)), axis=0)
    powers = np.concatenate([np.ones((1, k.size), dtype=np.clongdouble), powers])
    y, dy = np.zeros_like(k), np.ones_like(k)
    for m in coef.astype(np.longdouble) @ powers:
        y, dy = m[0] * y + m[1] * dy, m[2] * y + m[3] * dy
    sinc, cos = np.sin(k) / k, np.cos(k)
    return dy * sinc - y * cos, (np.abs(dy) + np.abs(k * y)) * (np.abs(sinc) + np.abs(cos / k))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here, so it cannot "
                           "measure double-precision rounding")
@pytest.mark.parametrize("rect, bound", [((145.0, 150.5, 0.0, 8.0), 2e-14),
                                         ((0.5, 499.0, 0.0, 10.0), 3e-14)])
def test_engine_rounding_against_long_double(colton, rect, bound):
    # the composed rows, their scaling and truncation round only in the last digits of
    # d_h: measured against the same steps one at a time in extended precision, on the
    # grid a search on rect uses (581 and 1,921 steps).  Rows of 32 steps miss the
    # bounds 7- to 70-fold.  Near the real axis, where sinc k and y(1, k) can vanish
    # together, |y' sinc k| + |y cos k| alone would make the measure ill-conditioned.
    x0, x1, y0, y1 = rect
    rng = np.random.default_rng(1)
    k = rng.uniform(x0, x1, 60) + 1j * rng.uniform(y0, y1, 60)
    n_steps = _d_service(colton, rect).cost
    d_s, _, scale = characteristic_batch(colton, k, n_steps=n_steps)
    d_ref, size = _d_long_double(colton, k, n_steps)
    err = np.abs(d_s * np.exp(scale) - d_ref.astype(complex)) / size.astype(float)
    assert err.max() <= bound


@pytest.mark.parametrize("tol", [1e-13, 1e-12, 1e-9])
def test_step_doubling_starts_from_one_grid_for_every_tol(colton, monkeypatch, tol):
    # every tol starts at 8 steps per radian, the default grid of characteristic_batch;
    # the n / 2n check alone decides how far to double
    # (each grid's step edges are placed once: a batch table, or one level of the check)
    k = np.array([15.0])
    sizes = []
    nodes = forward._step_nodes
    monkeypatch.setattr(forward, "_step_nodes", lambda p, n: sizes.append(n) or nodes(p, n))
    forward._composed_table.cache_clear()
    forward._checked_shoot(colton, k, tol)
    assert sizes[0] == grid_steps(colton, 15.0, 8.0)
    assert sizes == [sizes[0] * 2 ** i for i in range(len(sizes))]
    sizes.clear()
    characteristic_batch(colton, k)
    assert sizes == [grid_steps(colton, 15.0, 8.0)]
