import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from tevp.errors import MassOutOfRange, RegimeError
from tevp.inverse import (UniquenessScenario, density_estimate, load_scenario,
                          smooth_bump, theorem3_epsilon, theorem4_threshold,
                          wronskian_g)
from tevp.profiles import get_profile, subinterval_boundary, travel_time


def test_theorem3_epsilon_closed_form(colton):
    # int_eps^1 sqrt(eta) = (a-1)/2 with a = ln 3 solves to
    # (3-eps)/(1+eps) = sqrt(3/e)
    res = theorem3_epsilon(colton)
    s = math.sqrt(3.0 / math.e)
    assert res.epsilon == pytest.approx((3.0 - s) / (1.0 + s), abs=1e-10)
    assert res.x0 == pytest.approx(0.5 * (math.log(3.0) + 1.0), abs=1e-12)


def test_theorem3_regime_guard():
    with pytest.raises(RegimeError):
        theorem3_epsilon(get_profile("constant", [1.0]))
    with pytest.raises(RegimeError):
        theorem3_epsilon(get_profile("slow_core"))


def test_unit_optical_mass_between_endpoints(colton):
    # eps (mass (a-1)/2 from the boundary) and eps1 (mass (a+1)/2) enclose
    # exactly one unit of optical path
    a = travel_time(colton)
    eps = theorem3_epsilon(colton).epsilon
    eps1 = subinterval_boundary(colton, 0.5 * (a + 1.0))
    assert eps1 < eps
    mass, _ = quad(lambda r: math.sqrt(float(colton.eta(r))), eps1, eps,
                   epsabs=1e-12, epsrel=1e-12)
    assert abs(mass - 1.0) <= 1e-9


def test_subinterval_mass_validation(colton):
    with pytest.raises(MassOutOfRange):
        subinterval_boundary(colton, 0.0)
    with pytest.raises(MassOutOfRange):
        subinterval_boundary(colton, travel_time(colton) + 0.1)


def test_smooth_bump_support():
    bump = smooth_bump(2.0, 0.5, 0.2)
    x = np.array([0.0, 0.3, 0.5, 0.69, 0.7, 1.0])
    v = bump(x)
    assert v[0] == 0.0 and v[4] == 0.0 and v[5] == 0.0
    assert v[2] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)
    assert 0.0 < v[3] < v[2]


def test_scenario_validation():
    with pytest.raises(ValueError):
        UniquenessScenario(q=lambda x: 0.0 * x, q_tilde=lambda x: 0.0 * x + 1.0,
                           a=1.0, x0=0.5)
    with pytest.raises(ValueError):
        UniquenessScenario(q=lambda x: 0.0 * x, q_tilde=lambda x: 0.0 * x,
                           a=1.0, x0=1.5)


def _bump_scenario():
    return load_scenario({
        "q": "colton_example",
        "q_tilde": {"base": "colton_example",
                    "bump": {"amplitude": 0.8, "center": 0.3, "width": 0.2}},
        "agree_from": 0.6,
    })


@pytest.mark.parametrize("change, unknown", [
    (lambda sc: sc.update(agree_form=0.6), "agree_form"),
    (lambda sc: sc["q_tilde"].update(bmup=sc["q_tilde"].pop("bump")), "bmup"),
    (lambda sc: sc["q_tilde"]["bump"].update(centre=0.3), "centre"),
    (lambda sc: sc.update(q={"profile": "colton_example", "bump": {}}), "bump"),
], ids=["top_level", "base_reference", "bump", "profile_reference"])
def test_scenario_rejects_unknown_keys(change, unknown):
    # a misspelt key must not load silently: "bmup" for "bump" would give q_tilde = q
    sc = {"q": "colton_example", "agree_from": 0.6,
          "q_tilde": {"base": "colton_example",
                      "bump": {"amplitude": 0.8, "center": 0.3, "width": 0.2}}}
    change(sc)
    with pytest.raises(ValueError, match=f"unknown key.*'{unknown}'"):
        load_scenario(sc)


@pytest.mark.parametrize("value", ["0.1", True, None, [0.1]])
@pytest.mark.parametrize("key", ["agree_from", "b", "alpha", "amplitude", "center", "width"])
def test_scenario_rejects_a_non_numeric_field(key, value):
    # "b": "0.1" raised TypeError in theorem4_threshold, a string amplitude
    # UFuncTypeError, and "agree_from": "0.6" or true loaded silently
    bump = {"amplitude": 0.8, "center": 0.3, "width": 0.2}
    sc = {"q": "colton_example", "agree_from": 0.6, "b": 0.1, "alpha": 0.5,
          "q_tilde": {"base": "colton_example", "bump": bump}}
    assert load_scenario(sc).b == 0.1
    (bump if key in bump else sc)[key] = value
    match = ("bump amplitude, center and width must be" if key in bump
             else f"scenario '{key}' must be a real number")
    with pytest.raises(ValueError, match=match):
        load_scenario(sc)


@pytest.mark.parametrize("key, value", [("width", 0.0), ("width", -0.2), ("width", math.nan),
                                        ("width", math.inf), ("amplitude", math.nan),
                                        ("amplitude", -math.inf), ("center", math.nan)])
def test_bump_rejects_a_width_not_positive_or_a_field_not_finite(key, value):
    # a width of 0 gave a bump of 0 everywhere (q~ = q, a silent pass) and a
    # negative one acted as its absolute value
    bump = {"amplitude": 0.8, "center": 0.3, "width": 0.2, key: value}
    with pytest.raises(ValueError, match="must be finite real numbers, width > 0"):
        smooth_bump(**bump)
    with pytest.raises(ValueError, match="must be finite real numbers, width > 0"):
        load_scenario({"q": "colton_example", "agree_from": 0.6,
                       "q_tilde": {"base": "colton_example", "bump": bump}})


def test_wronskian_identity_with_bump():
    sc = _bump_scenario()
    for k in (0.0, 1.0, 5.0, 2.0 + 1.0j, 0.5 + 2.5j):
        g_int, g_wron = wronskian_g(sc, k)
        assert abs(g_int - g_wron) <= 1e-8 * max(1.0, abs(g_int))
        assert abs(g_int) > 1e-6      # the perturbation is actually seen


def _oracle_wronskian_g(scenario, k, tol=1e-12):
    """g(k) by two adaptive DOP853 solves with dense output and two quad calls."""
    kk = complex(k) ** 2

    def phi_solution(q):
        sol = solve_ivp(lambda x, w: [w[1], (q(x) - kk) * w[0]], (0.0, scenario.a),
                        np.array([0.0, scenario.phi_slope], dtype=complex),
                        method="DOP853", rtol=tol, atol=tol, dense_output=True,
                        max_step=0.5 / max(1.0, abs(complex(k))))
        assert sol.success
        return sol

    sol, sol_t = phi_solution(scenario.q), phi_solution(scenario.q_tilde)

    def integrand(x):
        return (scenario.q_tilde(x) - scenario.q(x)) * sol.sol(x)[0] * sol_t.sol(x)[0]

    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
    re, _ = quad(lambda x: integrand(x).real, 0.0, scenario.x0, **opts)
    im, _ = quad(lambda x: integrand(x).imag, 0.0, scenario.x0, **opts)
    (phi_a, dphi_a), (phit_a, dphit_a) = sol.y[:, -1], sol_t.y[:, -1]
    return complex(re, im), dphit_a * phi_a - phit_a * dphi_a


def test_wronskian_matches_adaptive_oracle():
    sc = _bump_scenario()
    ks = np.array([1.0, 5.0, 2.0 + 1.0j, 3.0 + 3.0j])
    g_int, g_wron = wronskian_g(sc, ks)
    for k, gi, gw in zip(ks, g_int, g_wron):
        oi, ow = _oracle_wronskian_g(sc, k)
        assert abs(gi - oi) <= 1e-9 * abs(oi)
        assert abs(gw - ow) <= 1e-9 * abs(ow)


def test_wronskian_array_matches_scalar_calls():
    sc = _bump_scenario()
    ks = np.array([[0.0, 3.0], [2.0 + 1.0j, -4.0 + 0.5j]])
    g_int, g_wron = wronskian_g(sc, ks)
    assert g_int.shape == g_wron.shape == ks.shape
    for k, gi, gw in zip(ks.ravel(), g_int.ravel(), g_wron.ravel()):
        assert (gi, gw) == pytest.approx(wronskian_g(sc, k), rel=1e-12)
    g_int, g_wron = wronskian_g(sc, np.array([], dtype=complex))
    assert g_int.shape == g_wron.shape == (0,)


@pytest.mark.parametrize("bad", [math.inf, complex(math.nan, 0.0), complex(2.0, math.nan)])
def test_wronskian_rejects_a_non_finite_k(bad):
    # a NaN real part used to give g = NaN without an error, a NaN imaginary part a bare
    # "cannot convert float NaN to integer" and inf an OverflowError
    sc = _bump_scenario()
    with pytest.raises(ValueError, match="k must be finite"):
        wronskian_g(sc, bad)
    with pytest.raises(ValueError, match="k must be finite"):
        wronskian_g(sc, np.array([1.0, bad]))


def test_wronskian_resolves_a_narrow_perturbation():
    # a bump 1/4 as wide as the usual one: the panels on [0, x0] must be refined
    sc = load_scenario({
        "q": "colton_example",
        "q_tilde": {"base": "colton_example",
                    "bump": {"amplitude": 0.8, "center": 0.3, "width": 0.05}},
        "agree_from": 0.6,
    })
    g_int, g_wron = wronskian_g(sc, np.array([0.5, 3.0, 10.0 + 2.0j, 25.0 + 1.0j]))
    assert np.all(np.abs(g_int - g_wron) <= 1e-8 * np.abs(g_int))


def test_wronskian_check_can_fail():
    # q~ also differs from q on [x0, a]: the quadrature over [0, x0] misses that
    # part, so the two sides of the identity must visibly disagree
    sc = _bump_scenario()
    q_tilde, tail = sc.q_tilde, smooth_bump(0.8, 0.85, 0.2)
    assert 0.6 < 0.85 - 0.2 and 0.85 + 0.2 < sc.a
    object.__setattr__(sc, "q_tilde", lambda x: q_tilde(x) + tail(x))
    g_int, g_wron = wronskian_g(sc, np.array([0.0, 1.0, 5.0, 2.0 + 1.0j]))
    assert np.all(np.abs(g_int - g_wron) > 1e-6)


def test_wronskian_trivial_pair(colton_lv):
    sc = UniquenessScenario(q=colton_lv.q, q_tilde=colton_lv.q,
                            a=colton_lv.a, x0=0.5 * colton_lv.a)
    g_int, g_wron = wronskian_g(sc, 3.0)
    assert abs(g_int) <= 1e-12
    assert abs(g_wron) <= 1e-9        # IVP cancellation, slightly looser


def test_threshold_boundary_exact():
    for a in (math.log(3.0), 1.5, 2.7):
        assert theorem4_threshold(a, 0.5 * (a - 1.0)) == 2.0


def test_threshold_guards():
    with pytest.raises(RegimeError):
        theorem4_threshold(0.9, 0.1)
    with pytest.raises(RegimeError):
        theorem4_threshold(2.0, 0.25)      # below minimum mass (a-1)/2
    with pytest.raises(ValueError):
        theorem4_threshold(2.0, 2.0)       # threshold would be negative
    assert theorem4_threshold(2.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_density_estimate_empty():
    assert density_estimate([], 10.0) == 0.0


def test_density_estimate_counts_copies(colton_spectrum_40):
    r = 40.0
    alpha = density_estimate(colton_spectrum_40, r)
    nonreal = [z for z in colton_spectrum_40.zeros
               if z.cls == "nonreal" and abs(z.k) <= r]
    expect = 4 * sum(z.multiplicity for z in nonreal) * math.pi / (2.0 * r)
    assert alpha == pytest.approx(expect, rel=1e-14)
    assert 1.0 < alpha < 3.0
    # a filtered subset can only lower the count
    half = density_estimate([z for z in colton_spectrum_40.zeros if z.k.real <= 20.0], r)
    assert 0.0 < half < alpha


def test_load_scenario_errors(tmp_path):
    with pytest.raises(KeyError):
        load_scenario({"q": "colton_example"})
    with pytest.raises(ValueError):
        load_scenario({"q": "colton_example", "q_tilde": "raised_cosine",
                       "agree_from": 0.5})    # travel times differ
    p = tmp_path / "sc.json"
    p.write_text('{"q": "colton_example", "q_tilde": "colton_example", '
                 '"agree_from": 0.6, "b": 0.1}')
    sc = load_scenario(str(p))
    assert sc.b == 0.1 and sc.a == pytest.approx(math.log(3.0), abs=1e-10)
