import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

import tevp
from tevp.asymptotics import case_from_profile
from tevp.cli import main as cli_main
from tevp.errors import MassOutOfRange, QuadratureFailure
from tevp.profiles import (ChebyshevProfile, ColtonExampleProfile,
                           ConstantProfile, RefractiveProfile, get_profile,
                           liouville_transform, load_profile,
                           profile_from_dict, subinterval_boundary,
                           travel_time)


def test_registry_and_aliases():
    assert isinstance(get_profile("const1"), ConstantProfile)
    assert get_profile("const4").eta(0.3) == 4.0
    with pytest.raises(KeyError):
        get_profile("no_such_profile")


def test_constant_profile_basics():
    p = ConstantProfile(4.0)
    r = np.linspace(0, 1, 11)
    assert_allclose(p.eta(r), 4.0)
    assert_allclose(p.eta(r, deriv=1), 0.0)
    assert travel_time(p) == pytest.approx(2.0, abs=1e-14)


def test_colton_travel_time_closed_form():
    p = ColtonExampleProfile()
    assert abs(travel_time(p) - math.log(3.0)) <= 1e-10


def test_colton_eta_values_and_boundary_derivatives():
    p = ColtonExampleProfile()
    # eta = 16 / ((1+r)^2 (3-r)^2)
    r = np.array([0.0, 0.3, 0.7, 1.0])
    expect = 16.0 / ((1 + r) ** 2 * (3 - r) ** 2)
    assert_allclose(p.eta(r), expect, rtol=1e-14)
    assert p.eta(1.0) == pytest.approx(1.0, abs=1e-14)
    assert p.eta(1.0, deriv=1) == pytest.approx(0.0, abs=1e-14)
    assert p.eta(1.0, deriv=2) == pytest.approx(1.0, abs=1e-12)


_CLOSED_FORMS = {
    "colton_example": lambda p, r: 16 / ((r + 1) ** 2 * (r - 3) ** 2),
    "raised_cosine": lambda p, r: 1 + p.amplitude * (1 + mpmath.cos(mpmath.pi * r)) ** 2 / 4,
    "slow_core": lambda p, r: p.core ** 2 + (1 - p.core ** 2) * mpmath.exp(-p.beta * (1 - r) ** 2),
}


@pytest.mark.parametrize("deriv", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(_CLOSED_FORMS))
def test_named_profile_derivatives_match_the_closed_form(name, deriv):
    # case_from_profile reads eta^(m+2)(1) up to the 4th derivative; each
    # hand-written derivative against mpmath's of the closed form, to 30 digits
    p = get_profile(name)
    r = np.linspace(0.0, 1.0, 11)
    with mpmath.workdps(30):
        expect = np.array([float(mpmath.diff(lambda x: _CLOSED_FORMS[name](p, x),
                                             mpmath.mpf(float(x)), deriv)) for x in r])
    assert np.abs(p.eta(r, deriv) - expect).max() <= 1e-14 * np.abs(expect).max()


def test_colton_map_roundtrip():
    p = ColtonExampleProfile()
    cmap = p.cumulative_map()
    r = np.linspace(0.0, 1.0, 23)
    x = cmap(r)
    # int_0^r sqrt(eta) in closed form
    assert_allclose(x, np.log(3.0 * (1.0 + r) / (3.0 - r)), atol=1e-12)
    back = np.array([cmap.inverse(xv) for xv in np.atleast_1d(x)])
    assert_allclose(back, r, atol=1e-12)


def test_liouville_constant_potential():
    # the example profile transforms to the constant potential q = 1/4
    lv = liouville_transform(ColtonExampleProfile())
    xs = np.linspace(0.0, lv.a, 57)
    assert_allclose(lv.q(xs), 0.25, atol=1e-9)
    assert lv.q_mean == pytest.approx(0.25 * lv.a, abs=1e-9)


def test_liouville_trivial_for_unit_eta():
    lv = liouville_transform(ConstantProfile(1.0))
    assert lv.a == pytest.approx(1.0, abs=1e-14)
    assert_allclose(lv.q(np.linspace(0, 1, 11)), 0.0, atol=1e-12)


def test_subinterval_boundary_mass_identity():
    p = ColtonExampleProfile()
    a = travel_time(p)
    eps = subinterval_boundary(p, 0.5 * (a - 1.0))
    # closed-form scalar equation ln((3-eps)/(1+eps)) = (ln 3 - 1)/2
    assert math.log((3 - eps) / (1 + eps)) == pytest.approx(
        0.5 * (math.log(3.0) - 1.0), abs=1e-11)
    with pytest.raises(MassOutOfRange):
        subinterval_boundary(p, 2.0 * a)
    with pytest.raises(MassOutOfRange):
        subinterval_boundary(p, -0.1)


def test_chebyshev_profile_matches_function():
    # eta(r) = 2 - r^2 is degree 2, so the Chebyshev fit is exact
    xs = np.linspace(0, 1, 9)
    coeffs = np.polynomial.chebyshev.Chebyshev.fit(
        xs, 2 - xs ** 2, 2, domain=[0, 1]).coef
    p = ChebyshevProfile(coeffs)
    r = np.linspace(0, 1, 33)
    assert_allclose(p.eta(r), 2 - r ** 2, atol=1e-12)
    assert_allclose(p.eta(r, deriv=1), -2 * r, atol=1e-10)


def test_positivity_rejected():
    with pytest.raises(ValueError):
        ConstantProfile(-1.0)


def test_normalized_tail_enforced():
    # the asymptotics assume eta(1) = 1 and eta'(1) = 0; this profile has
    # eta(1) = 1.5 and eta'(1) = 1, and used to get m = 0 from eta''(1) = 3.2
    with pytest.raises(ValueError, match=r"eta\(1\) = 1\.5.*eta'\(1\) = 1\.0"):
        case_from_profile(ChebyshevProfile([1.6, -0.3, 0.2]))
    with pytest.raises(ValueError, match=r"eta\(1\) = 4\.0"):
        case_from_profile(ConstantProfile(4.0))
    assert case_from_profile(get_profile("colton_example")).m == 0


@pytest.mark.parametrize("name, params, expected", [
    ("colton_example", [0.0], "[]"),
    ("raised_cosine", [1.0, 0], "['amplitude']"),
    ("slow_core", [0.5, 40, 7, 8], "['core', 'beta']"),
    ("const4", [4.0, 1], "['value']"),
])
def test_named_params_never_bind_to_normalized_tail(name, params, expected):
    # a surplus param used to fill normalized_tail (silently turning the
    # tail check off) or to raise TypeError; it names the expected params now
    with pytest.raises(ValueError, match=re.escape(expected)):
        get_profile(name, params)
    with pytest.raises(ValueError, match=re.escape(expected)):
        profile_from_dict({"kind": "named", "name": name, "params": params})
    with pytest.raises(TypeError):
        ConstantProfile(1.0, True)


@pytest.mark.parametrize("name, params", [("const4", [9.0]), ("const1", [4.0]),
                                          ("const4", [4.0])])
def test_alias_takes_no_params(tmp_path, capsys, name, params):
    # const4 with params [9] used to load eta == 9 under the name const4
    message = "use 'constant' with params ['value']"
    with pytest.raises(ValueError, match=re.escape(message)):
        get_profile(name, params)
    spec = {"kind": "named", "name": name, "params": params}
    with pytest.raises(ValueError, match=re.escape(message)):
        profile_from_dict(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli_main(["profile-info", "--profile", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert get_profile(name, []).eta(0.3) == get_profile(name).eta(0.3)


def test_profile_dict_roundtrip(tmp_path):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({"kind": "named", "name": "colton_example"}))
    p3 = load_profile(str(path))
    assert abs(travel_time(p3) - math.log(3.0)) <= 1e-10


def test_unknown_profile_key_raises():
    with pytest.raises(ValueError, match="smoothness_m"):
        profile_from_dict({"kind": "chebyshev", "coeffs": [2, 0.1], "smoothness_m": 7})
    with pytest.raises(ValueError, match="coeffs"):
        profile_from_dict({"kind": "named", "name": "constant", "coeffs": [4.0]})


@pytest.mark.parametrize("fields, name", [
    ({"coeffs": [2.0, None]}, "coeffs"),
    ({"coeffs": []}, "coeffs"),
    ({"coeffs": [True, 0.1]}, "coeffs"),
    ({"coeffs": "2.0"}, "coeffs"),
    ({}, "coeffs"),
    ({"coeffs": [1.5, 0.3, 0.1], "deriv_order": 2.5}, "deriv_order"),
    ({"coeffs": [1.5, 0.3, 0.1], "deriv_order": -1}, "deriv_order"),
    ({"coeffs": [1.5, 0.3, 0.1], "deriv_order": True}, "deriv_order"),
])
def test_chebyshev_spec_names_its_bad_field(fields, name):
    # 2.5 was truncated to 2, -1 failed later as "derivative order 0 > -1",
    # None escaped as TypeError
    with pytest.raises(ValueError, match=name):
        profile_from_dict({"kind": "chebyshev", **fields})


def test_load_profile_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_profile("definitely_not_a_profile_or_file")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_profile(str(bad))


def test_travel_time_equals_map_endpoint():
    p = get_profile("slow_core")
    assert travel_time(p) == pytest.approx(float(p.cumulative_map()(1.0)),
                                           abs=1e-13)


def _run_python(code):
    """stdout of ``code`` run by a fresh interpreter that imports this tevp."""
    env = dict(os.environ, PYTHONPATH=str(Path(tevp.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return res.stdout.strip()


def test_q_is_bit_reproducible_across_processes():
    code = ("import hashlib, numpy as np\n"
            "from tevp.profiles import get_profile, liouville_transform\n"
            "lv = liouville_transform(get_profile('slow_core'))\n"
            "q = np.asarray(lv.q(np.linspace(0.0, lv.a, 801)))\n"
            "print(hashlib.md5(q.tobytes()).hexdigest())")
    assert _run_python(code) == _run_python(code)


@pytest.mark.parametrize("module", ["scipy.interpolate", "scipy.integrate"])
def test_import_leaves_scipy_module_unloaded(module):
    code = ("import sys, tevp, tevp.cli\n"
            f"print({module!r} in sys.modules)")
    assert _run_python(code) == "False"


def _quad_reference(profile, absolute=False, panels=16):
    """int_0^1 q sqrt(eta) dr (of |q| with ``absolute``) by panelwise quad."""
    def f(r):
        e, d1, d2 = (float(profile.eta(r, n)) for n in range(3))
        q = d2 / (4.0 * e * e) - 5.0 / 16.0 * d1**2 / e**3
        return (abs(q) if absolute else q) * math.sqrt(e)
    edges = np.linspace(0.0, 1.0, panels + 1)
    return sum(integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("name", ["colton_example", "raised_cosine", "slow_core", "const4"])
def test_q_integrals_match_quad(name):
    p = get_profile(name)
    lv = liouville_transform(p)
    assert abs(lv.q_mean - _quad_reference(p)) <= 1e-13


def test_kernel_check_bound_scale_is_the_integral_of_abs_q(capsys):
    # the diagonal bound 5e-4 max(1, int |q|) takes int |q| from the kernel's
    # own q samples; slow_core is the profile with int |q| > 1
    assert cli_main(["kernel-check", "--profile", "slow_core", "--json"]) == 0
    bound = json.loads(capsys.readouterr().out)["checks"][0]["bound"]
    ref = _quad_reference(get_profile("slow_core"), absolute=True)
    assert ref > 1.0
    assert bound == pytest.approx(5e-4 * ref, rel=1e-5)


@pytest.mark.parametrize("degree, amplitude", [(60, 0.02), (100, 0.01)])
def test_q_mean_of_high_degree_chebyshev_profile(degree, amplitude):
    # 2 + 0.2 T_3 + amplitude T_degree: q sqrt(eta) needs 1281 Chebyshev nodes
    coeffs = np.zeros(degree + 1)
    coeffs[[0, 3, degree]] = 2.0, 0.2, amplitude
    p = ChebyshevProfile(coeffs)
    ref = _quad_reference(p, panels=128)
    assert abs(liouville_transform(p).q_mean - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("degree, amplitude", [(250, 0.01), (400, 0.005)])
def test_travel_time_of_high_degree_chebyshev_profile(degree, amplitude):
    # 2 + 0.2 T_3 + amplitude T_degree: a 161-node series misses a by ~1e-6
    coeffs = np.zeros(degree + 1)
    coeffs[[0, 3, degree]] = 2.0, 0.2, amplitude
    p = profile_from_dict({"kind": "chebyshev", "coeffs": coeffs.tolist()})
    edges = np.linspace(0.0, 1.0, 33)
    ref = sum(integrate.quad(lambda r: float(np.sqrt(p.eta(r))), lo, hi,
                             epsabs=1e-15, epsrel=1e-14, limit=200)[0]
              for lo, hi in zip(edges[:-1], edges[1:]))
    assert abs(travel_time(p) - ref) <= 1e-13


class _KinkProfile(RefractiveProfile):
    """eta = 2 + |r - 0.4|: positive, but sqrt(eta) has a kink."""

    name = "kink"

    def _eval(self, r, deriv):
        if deriv == 0:
            return 2.0 + np.abs(r - 0.4)
        if deriv == 1:
            return np.sign(r - 0.4)
        return np.zeros_like(r)


def test_non_smooth_profile_raises_quadrature_failure():
    with pytest.raises(QuadratureFailure):
        travel_time(_KinkProfile())
