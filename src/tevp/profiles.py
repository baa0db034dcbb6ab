"""Refractive-index profiles on [0,1] and their Liouville transformation.

A profile represents eta(r), the square of the index of refraction, with as
many exact derivatives as its representation supports.  The Liouville change
of variables x = int_0^r sqrt(eta) maps the wave equation to Schroedinger
form with potential

    q(x) = eta''(r)/(4 eta^2) - (5/16) eta'^2 / eta^3,   r = r(x),

on [0, a], where a = int_0^1 sqrt(eta) dr is the travel time.
"""

from __future__ import annotations

import inspect
import json
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from .errors import DerivativeUnavailable, MassOutOfRange, QuadratureFailure

__all__ = [
    "RefractiveProfile",
    "ConstantProfile",
    "ColtonExampleProfile",
    "RaisedCosineProfile",
    "SlowCoreProfile",
    "ChebyshevProfile",
    "LiouvilleData",
    "travel_time",
    "liouville_transform",
    "subinterval_boundary",
    "load_profile",
    "profile_from_dict",
    "get_profile",
    "NAMED_PROFILES",
]

_CERT_GRID = 2001          # positivity certificate sample count
_N_CHEB = 161              # first node count of the optical-map series
_N_CHEB_MAX = 8193         # node counts beyond this raise QuadratureFailure
_CHEB_TAIL = 1e-13         # resolved: upper-half coefficients below this of the max
_N_SEED = 129              # equispaced x(r) values seeding the inverse


class RefractiveProfile:
    """Base class: positive eta(r) on [0,1] with derivatives.

    Subclasses implement ``_eval(r, deriv)`` (numpy-vectorized) and set
    ``max_deriv`` (None means any order).  Construction certifies positivity
    on a derivative-refined grid and records the bound ``eta_min``.
    """

    name: str = "profile"
    max_deriv: Optional[int] = None

    def __init__(self):
        self.eta_min = self._certify_positive()
        self._cum: Optional[_CumulativeMap] = None
        self._asymptotic: Optional[tuple] = None

    # -- representation hooks -------------------------------------------------

    def _eval(self, r, deriv):
        raise NotImplementedError

    def eta(self, r, deriv: int = 0):
        """Evaluate eta^(deriv)(r); r may be a scalar or ndarray."""
        if self.max_deriv is not None and deriv > self.max_deriv:
            raise DerivativeUnavailable(
                f"{self.name}: derivative order {deriv} > {self.max_deriv}"
            )
        r = np.asarray(r, dtype=float)
        return self._eval(r, deriv)

    # -- positivity certificate -----------------------------------------------

    def _certify_positive(self) -> float:
        r = np.linspace(0.0, 1.0, _CERT_GRID)
        vals = np.asarray(self._eval(r, 0), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{self.name}: eta not finite on [0,1]")
        h = r[1] - r[0]
        try:
            dv = np.abs(np.asarray(self._eval(r, 1), dtype=float))
            slope = np.maximum(dv[:-1], dv[1:]) * 1.5
        except (DerivativeUnavailable, NotImplementedError):
            slope = np.zeros(_CERT_GRID - 1)
        cell_lo = np.minimum(vals[:-1], vals[1:]) - slope * h / 2.0
        lo = float(min(vals.min(), cell_lo.min()))
        if lo <= 0.0:
            raise ValueError(f"{self.name}: eta is not certifiably positive (bound {lo})")
        return lo

    # -- cached Liouville machinery -------------------------------------------

    def cumulative_map(self) -> "_CumulativeMap":
        if self._cum is None:
            self._cum = _CumulativeMap(self)
        return self._cum

    def asymptotic_inputs(self) -> tuple:
        """(AsymptoticCase, LiouvilleData) of the asymptotic predictions, built on the
        first call (``predict_real`` reads the data's q_mean); (None, None) for a profile
        without a matched tail or the derivatives q needs."""
        if self._asymptotic is None:
            from .asymptotics import case_from_profile     # asymptotics imports this module
            try:
                liouville = liouville_transform(self)
                self._asymptotic = (case_from_profile(self, liouville), liouville)
            except (ValueError, DerivativeUnavailable, QuadratureFailure):
                self._asymptotic = (None, None)
        return self._asymptotic

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} eta_min={self.eta_min:.6g}>"


# ---------------------------------------------------------------------------
# Named analytic profiles
# ---------------------------------------------------------------------------


class ConstantProfile(RefractiveProfile):
    """eta(r) = value everywhere; Liouville potential q = 0, a = sqrt(value)."""

    max_deriv = None

    def __init__(self, value: float = 1.0):
        if value <= 0:
            raise ValueError("constant eta must be positive")
        self.value = float(value)
        self.name = f"constant({value:g})"
        super().__init__()

    def _eval(self, r, deriv):
        if deriv == 0:
            return np.full_like(r, self.value, dtype=float)
        return np.zeros_like(r, dtype=float)


class ColtonExampleProfile(RefractiveProfile):
    """eta(r) = 16 / ((r+1)^2 (r-3)^2).

    Satisfies eta(1)=1, eta'(1)=0, eta''(1)=1; travel time a = ln 3.
    sqrt(eta) = 4/((1+r)(3-r)) has antiderivative ln((1+r)/(3-r)).
    """

    name = "colton_example"
    max_deriv = 4

    def _eval(self, r, deriv):
        u = r * r - 2.0 * r - 3.0        # (r+1)(r-3)
        du = 2.0 * r - 2.0
        if deriv == 0:
            return 16.0 / u**2
        if deriv == 1:
            return -32.0 * du / u**3
        if deriv == 2:
            return 96.0 * du**2 / u**4 - 64.0 / u**3
        if deriv == 3:
            return 576.0 * du / u**4 - 384.0 * du**3 / u**5
        if deriv == 4:
            return 1152.0 / u**4 - 4608.0 * du**2 / u**5 + 1920.0 * du**4 / u**6
        raise DerivativeUnavailable(f"order {deriv}")


class RaisedCosineProfile(RefractiveProfile):
    """eta(r) = 1 + A (1 + cos(pi r))^2 / 4: a smooth bump flat at r=1.

    eta(1)=1 with eta', eta'', eta''' vanishing there and
    eta''''(1) = 3 A pi^4 / 2, so the tail-flatness order is m=2.
    """

    max_deriv = 4

    def __init__(self, amplitude: float = 1.0):
        if amplitude <= -1.0:
            raise ValueError("amplitude must exceed -1 for positivity")
        self.amplitude = float(amplitude)
        self.name = f"raised_cosine({amplitude:g})"
        super().__init__()

    def _eval(self, r, deriv):
        A = self.amplitude
        c = np.cos(np.pi * r)
        s = np.sin(np.pi * r)
        if deriv == 0:
            return 1.0 + A * (1.0 + c) ** 2 / 4.0
        if deriv == 1:
            return -A * np.pi * (1.0 + c) * s / 2.0
        if deriv == 2:
            return A * np.pi**2 / 2.0 * (s * s - c - c * c)
        if deriv == 3:
            return A * np.pi**3 / 2.0 * (s + 4.0 * s * c)
        if deriv == 4:
            return A * np.pi**4 / 2.0 * (c + 4.0 * (c * c - s * s))
        raise DerivativeUnavailable(f"order {deriv}")


class SlowCoreProfile(RefractiveProfile):
    """eta = core^2 + (1 - core^2) exp(-beta (1-r)^2): slow interior, eta(1)=1.

    With core < 1 the travel time is below 1, giving the a<1 regime of the
    non-real asymptotics; eta''(1) = -2 beta (1 - core^2) != 0 so m=0.
    """

    max_deriv = 4

    def __init__(self, core: float = 0.5, beta: float = 40.0):
        if not (0 < core) or beta <= 0:
            raise ValueError("need core > 0 and beta > 0")
        self.core = float(core)
        self.beta = float(beta)
        self.name = f"slow_core({core:g},{beta:g})"
        super().__init__()

    def _eval(self, r, deriv):
        b = self.beta
        w = 1.0 - self.core**2
        s = 1.0 - r
        E = np.exp(-b * s * s)
        if deriv == 0:
            return self.core**2 + w * E
        if deriv == 1:
            return w * 2.0 * b * s * E
        if deriv == 2:
            return w * (-2.0 * b + 4.0 * b * b * s * s) * E
        if deriv == 3:
            return w * (-12.0 * b * b * s + 8.0 * b**3 * s**3) * E
        if deriv == 4:
            return w * (12.0 * b * b - 48.0 * b**3 * s * s + 16.0 * b**4 * s**4) * E
        raise DerivativeUnavailable(f"order {deriv}")


class ChebyshevProfile(RefractiveProfile):
    """User data as a Chebyshev series on [0,1], differentiable to deriv_order."""

    def __init__(self, coeffs: Sequence[float], deriv_order: int = 4):
        self.series = Chebyshev(np.asarray(coeffs, dtype=float), domain=[0.0, 1.0])
        self.max_deriv = int(deriv_order)
        self._derivs = [self.series]
        for _ in range(self.max_deriv):
            self._derivs.append(self._derivs[-1].deriv())
        self.name = "chebyshev"
        super().__init__()

    def _eval(self, r, deriv):
        if deriv >= len(self._derivs):
            raise DerivativeUnavailable(f"order {deriv} > {self.max_deriv}")
        return self._derivs[deriv](r)


NAMED_PROFILES: dict[str, Callable[..., RefractiveProfile]] = {
    "constant": ConstantProfile,
    "colton_example": ColtonExampleProfile,
    "raised_cosine": RaisedCosineProfile,
    "slow_core": SlowCoreProfile,
}

_ALIASES = {
    "const1": ("constant", [1.0]),
    "const4": ("constant", [4.0]),
}


def _real_numbers(values) -> bool:
    """Whether ``values`` is a list or tuple of real numbers, bools excluded."""
    return isinstance(values, (list, tuple)) and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values)


def get_profile(name: str, params: Optional[Sequence[float]] = None) -> RefractiveProfile:
    """Instantiate a registered named profile.

    ``params`` fill the constructor's positional parameters; a ``params`` that
    is not a list of numbers, more of them than it has, or any given to an
    alias such as ``const4``, raise ValueError.
    """
    if params is not None and not _real_numbers(params):
        raise ValueError(f"profile params must be a list of numbers, got {params!r}")
    args = list(params) if params else []
    target, alias_args = _ALIASES.get(name, (name, None))
    if target not in NAMED_PROFILES:
        raise KeyError(f"unknown profile name {name!r}; "
                       f"known: {sorted(NAMED_PROFILES) + sorted(_ALIASES)}")
    expected = [p.name for p in inspect.signature(NAMED_PROFILES[target]).parameters.values()
                if p.kind is p.POSITIONAL_OR_KEYWORD]
    if args and alias_args is not None:
        raise ValueError(f"profile alias {name!r} takes no params; "
                         f"use {target!r} with params {expected}")
    if len(args) > len(expected):
        raise ValueError(f"profile {name!r} takes at most {len(expected)} params "
                         f"{expected}, got {len(args)}: {args}")
    return NAMED_PROFILES[target](*(alias_args or args))


_SPEC_KEYS = {"named": {"kind", "name", "params"},
              "chebyshev": {"kind", "coeffs", "deriv_order"}}


def _known_keys(data, allowed, where):
    """ValueError naming the keys of the dict ``data`` outside ``allowed``."""
    if unknown := set(data) - allowed:
        raise ValueError(f"unknown key(s) {sorted(unknown)} for {where}")


def profile_from_dict(spec: dict) -> RefractiveProfile:
    """Build a profile from its JSON representation.

    ``{"kind":"named","name":...}`` or
    ``{"kind":"chebyshev","coeffs":[...],"deriv_order":n}``,
    a named one optionally with ``"params": [...]``.
    Any other key, a ``spec`` that is not a dict, ``coeffs`` that are not a
    non-empty list of numbers or a ``deriv_order`` that is not an integer
    >= 0 raise ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a profile spec is a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise ValueError(f"unknown profile kind {kind!r}")
    _known_keys(spec, _SPEC_KEYS[kind], f"profile kind {kind!r}")
    if kind == "named":
        return get_profile(spec["name"], spec.get("params"))
    coeffs, order = spec.get("coeffs"), spec.get("deriv_order", 4)
    if not (coeffs and _real_numbers(coeffs)):
        raise ValueError(f"chebyshev coeffs must be a non-empty list of numbers, got {coeffs!r}")
    if not isinstance(order, numbers.Integral) or isinstance(order, bool) or order < 0:
        raise ValueError(f"deriv_order must be an integer >= 0, got {order!r}")
    return ChebyshevProfile(coeffs, deriv_order=order)


def load_profile(path_or_name: str) -> RefractiveProfile:
    """Load a profile from a JSON file, or fall back to a registry name."""
    try:
        with open(path_or_name) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        try:
            return get_profile(path_or_name)
        except KeyError:
            raise FileNotFoundError(
                f"{path_or_name!r} is neither a profile file nor a known name"
            ) from None
    return profile_from_dict(spec)


# ---------------------------------------------------------------------------
# Cumulative optical map and Liouville data
# ---------------------------------------------------------------------------


def _chebyshev_coefficients(v: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant of v at the n first-kind points
    cos(pi (j + 1/2) / n): the type-II DCT of v over n, with c_0 halved.  The DCT is
    the real FFT of the even sequence of period 4n holding v at its odd points."""
    n = v.size
    w = np.zeros(4 * n)
    w[1:2 * n:2], w[2 * n + 1::2] = v, v[::-1]
    c = np.fft.rfft(w).real[:n] / n
    c[0] *= 0.5
    return c


def _chebyshev_fit(f: Callable, what: str) -> Chebyshev:
    """f on [0,1] as one Chebyshev series resolved to rounding level.

    The coefficients of f at n first-kind Chebyshev points come from one real FFT
    (``_chebyshev_coefficients``); n doubles until the upper half of them is below
    _CHEB_TAIL of the largest.  Those below machine epsilon of it are trimmed: they
    change no value but cost every call.
    """
    n = _N_CHEB
    while n <= _N_CHEB_MAX:
        c = _chebyshev_coefficients(f(0.5 * (1.0 + np.cos(np.pi * (np.arange(n) + 0.5) / n))))
        if np.max(np.abs(c[n // 2:])) <= _CHEB_TAIL * np.max(np.abs(c)):
            return Chebyshev(c, domain=[0.0, 1.0]).trim(np.finfo(float).eps * np.max(np.abs(c)))
        n = 2 * n - 1
    raise QuadratureFailure(f"{what} unresolved by {_N_CHEB_MAX} Chebyshev nodes")


class _CumulativeMap:
    """x(r) = int_0^r sqrt(eta) as one Chebyshev series on [0,1], with inverse.

    sqrt(eta) is fitted by ``_chebyshev_fit``, and the series is integrated
    exactly and evaluated by Clenshaw recurrence.  The inverse interpolates
    a seed from _N_SEED equispaced values of x(r), then takes safeguarded
    Newton steps on the exact derivative sqrt(eta).
    """

    def __init__(self, profile: RefractiveProfile):
        self.profile = profile
        self._x = _chebyshev_fit(lambda r: np.sqrt(profile.eta(r)),
                                 f"{profile.name}: sqrt(eta)").integ(lbnd=0.0)
        self.total = float(self._x(1.0))
        self._seed_r = np.linspace(0.0, 1.0, _N_SEED)
        self._seed_x = self._x(self._seed_r)

    def __call__(self, r):
        out = self._x(np.asarray(r, dtype=float))
        return out if out.shape else float(out)

    def inverse(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < -1e-12) or np.any(x > self.total + 1e-12):
            raise ValueError("x outside [0, a]")
        x = np.clip(x, 0.0, self.total)
        r = np.interp(x, self._seed_x, self._seed_r)
        for _ in range(6):
            dr = (self._x(r) - x) / np.sqrt(self.profile.eta(r))
            r = np.clip(r - dr, 0.0, 1.0)
            if np.max(np.abs(dr)) < 1e-15:
                break
        return r if r.ndim else float(r)


@dataclass
class LiouvilleData:
    """Travel time, potential q(x), ``q_mean`` = int_0^a q dx and ``q_series``,
    q sqrt(eta) in r, whose antiderivative at r(x) is int_0^x q."""

    a: float
    q: Callable
    q_mean: float
    profile: RefractiveProfile = field(repr=False)
    q_series: Chebyshev = field(repr=False)


def _q_of_r(profile: RefractiveProfile, r):
    """The Liouville potential q as a function of r."""
    e = profile.eta(r)
    return profile.eta(r, 2) / (4.0 * e * e) - 5.0 / 16.0 * profile.eta(r, 1) ** 2 / e**3


def travel_time(profile: RefractiveProfile) -> float:
    """a = int_0^1 sqrt(eta(r)) dr, the end value of the cached optical map."""
    return profile.cumulative_map().total


def liouville_transform(profile: RefractiveProfile) -> LiouvilleData:
    """Build the Liouville data (a, q(x), int q); q inverts the optical map."""
    cum = profile.cumulative_map()

    def q(x):
        return _q_of_r(profile, cum.inverse(x))

    series = _chebyshev_fit(lambda r: _q_of_r(profile, r) * np.sqrt(profile.eta(r)),
                            f"{profile.name}: q sqrt(eta)")
    return LiouvilleData(a=cum.total, q=q, q_mean=float(series.integ(lbnd=0.0)(1.0)),
                         profile=profile, q_series=series)


def subinterval_boundary(profile: RefractiveProfile, mass: float) -> float:
    """Left endpoint eps with int_eps^1 sqrt(eta) = mass (0 < mass <= a)."""
    cum = profile.cumulative_map()
    a = cum.total
    if not (0.0 < mass <= a + 1e-12):
        raise MassOutOfRange(f"mass {mass} outside (0, {a}]")
    eps = cum.inverse(a - min(mass, a))
    resid = abs((a - cum(eps)) - mass)
    if resid > 1e-11:
        raise QuadratureFailure(f"subinterval residual {resid}")
    return float(eps)
