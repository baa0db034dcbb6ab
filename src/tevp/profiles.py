"""Refractive-index profiles on [0,1] and their Liouville transformation.

A profile represents eta(r), the square of the index of refraction, with as
many exact derivatives as its representation supports.  The Liouville change
of variables x = int_0^r sqrt(eta) maps the wave equation to Schroedinger
form with potential

    q(x) = eta''(r)/(4 eta^2) - (5/16) eta'^2 / eta^3,   r = r(x),

on [0, a], where a = int_0^1 sqrt(eta) dr is the travel time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy import integrate
from scipy.interpolate import BarycentricInterpolator

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
    "profile_to_dict",
    "get_profile",
    "NAMED_PROFILES",
]

_CERT_GRID = 2001          # positivity certificate sample count
_TAIL_TOL = 1e-12          # |eta(1)-1|, |eta'(1)| for the normalized-tail flag
_N_CHEB = 160              # nodes for the cached cumulative map
_GRID_CACHE_SIZE = 16      # per-profile arrays kept by grid_cached()


class RefractiveProfile:
    """Base class: positive eta(r) on [0,1] with derivatives.

    Subclasses implement ``_eval(r, deriv)`` (numpy-vectorized) and set
    ``max_deriv`` (None means any order).  Construction certifies positivity
    on a derivative-refined grid and records ``eta_min`` and the largest
    sampled value ``eta_max``.
    """

    name: str = "profile"
    max_deriv: Optional[int] = None
    smoothness_m: Optional[int] = None

    def __init__(self, normalized_tail: bool = False):
        self.eta_min, self.eta_max = self._certify_positive()
        self.normalized_tail = bool(normalized_tail)
        if self.normalized_tail:
            e1 = float(self.eta(1.0))
            d1 = float(self.eta(1.0, 1))
            if abs(e1 - 1.0) > _TAIL_TOL or abs(d1) > _TAIL_TOL:
                raise ValueError(
                    f"normalized_tail requires eta(1)=1, eta'(1)=0; "
                    f"got eta(1)={e1!r}, eta'(1)={d1!r}"
                )
        self._cum: Optional[_CumulativeMap] = None
        self._liouville: Optional[LiouvilleData] = None
        self._grid_cache: dict = {}

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

    def eta_derivative_at_1(self, order: int) -> float:
        """eta^(order)(1); subclasses may override with an analytic value."""
        return float(self.eta(1.0, order))

    # -- positivity certificate -----------------------------------------------

    def _certify_positive(self) -> tuple[float, float]:
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
        return lo, float(vals.max())

    # -- cached Liouville machinery -------------------------------------------

    def cumulative_map(self) -> "_CumulativeMap":
        if self._cum is None:
            self._cum = _CumulativeMap(self)
        return self._cum

    def liouville(self) -> "LiouvilleData":
        if self._liouville is None:
            self._liouville = liouville_transform(self)
        return self._liouville

    def grid_cached(self, key, build):
        """``build()`` memoized under ``key``; the oldest entry goes first."""
        cache = self._grid_cache
        if key not in cache:
            if len(cache) >= _GRID_CACHE_SIZE:
                cache.pop(next(iter(cache)))
            cache[key] = build()
        return cache[key]

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} eta_min={self.eta_min:.6g}>"


# ---------------------------------------------------------------------------
# Named analytic profiles
# ---------------------------------------------------------------------------


class ConstantProfile(RefractiveProfile):
    """eta(r) = value everywhere; Liouville potential q = 0, a = sqrt(value)."""

    max_deriv = None
    smoothness_m = None

    def __init__(self, value: float = 1.0, normalized_tail: bool = False):
        if value <= 0:
            raise ValueError("constant eta must be positive")
        self.value = float(value)
        self.name = f"constant({value:g})"
        self.params = [self.value]
        super().__init__(normalized_tail=normalized_tail)

    def _eval(self, r, deriv):
        if deriv == 0:
            return np.full_like(r, self.value, dtype=float)
        return np.zeros_like(r, dtype=float)


class ColtonExampleProfile(RefractiveProfile):
    """eta(r) = 16 / ((r+1)^2 (r-3)^2).

    Satisfies eta(1)=1, eta'(1)=0, eta''(1)=1; travel time a = ln 3.
    sqrt(eta) = 4/((1+r)(3-r)) has antiderivative ln((1+r)/(3-r)).
    """

    max_deriv = 4
    smoothness_m = 0

    def __init__(self, normalized_tail: bool = True):
        self.name = "colton_example"
        self.params = []
        super().__init__(normalized_tail=normalized_tail)

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

    def eta_derivative_at_1(self, order):
        return {0: 1.0, 1: 0.0, 2: 1.0}.get(order, super().eta_derivative_at_1(order))

    @staticmethod
    def x_exact(r):
        """Closed-form cumulative map int_0^r sqrt(eta) = ln(3(1+r)/(3-r))."""
        r = np.asarray(r, dtype=float)
        return np.log(3.0 * (1.0 + r) / (3.0 - r))


class RaisedCosineProfile(RefractiveProfile):
    """eta(r) = 1 + A (1 + cos(pi r))^2 / 4: a smooth bump flat at r=1.

    eta(1)=1 with eta', eta'', eta''' vanishing there and
    eta''''(1) = 3 A pi^4 / 2, so the tail-flatness order is m=2.
    """

    max_deriv = 4
    smoothness_m = 2

    def __init__(self, amplitude: float = 1.0, normalized_tail: bool = True):
        if amplitude <= -1.0:
            raise ValueError("amplitude must exceed -1 for positivity")
        self.amplitude = float(amplitude)
        self.name = f"raised_cosine({amplitude:g})"
        self.params = [self.amplitude]
        super().__init__(normalized_tail=normalized_tail)

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

    def eta_derivative_at_1(self, order):
        exact = {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0, 4: 1.5 * self.amplitude * np.pi**4}
        if order in exact:
            return exact[order]
        return super().eta_derivative_at_1(order)


class SlowCoreProfile(RefractiveProfile):
    """eta = core^2 + (1 - core^2) exp(-beta (1-r)^2): slow interior, eta(1)=1.

    With core < 1 the travel time is below 1, giving the a<1 regime of the
    non-real asymptotics; eta''(1) = -2 beta (1 - core^2) != 0 so m=0.
    """

    max_deriv = 4
    smoothness_m = 0

    def __init__(self, core: float = 0.5, beta: float = 40.0,
                 normalized_tail: bool = True):
        if not (0 < core) or beta <= 0:
            raise ValueError("need core > 0 and beta > 0")
        self.core = float(core)
        self.beta = float(beta)
        self.name = f"slow_core({core:g},{beta:g})"
        self.params = [self.core, self.beta]
        super().__init__(normalized_tail=normalized_tail)

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

    def eta_derivative_at_1(self, order):
        w = 1.0 - self.core**2
        exact = {0: 1.0, 1: 0.0, 2: -2.0 * self.beta * w}
        if order in exact:
            return exact[order]
        return super().eta_derivative_at_1(order)


class ChebyshevProfile(RefractiveProfile):
    """User data as a Chebyshev series on [0,1], differentiable to deriv_order."""

    smoothness_m = None

    def __init__(self, coeffs: Sequence[float], deriv_order: int = 4,
                 normalized_tail: bool = False, smoothness_m: Optional[int] = None):
        self.series = Chebyshev(np.asarray(coeffs, dtype=float), domain=[0.0, 1.0])
        self.max_deriv = int(deriv_order)
        self._derivs = [self.series]
        for _ in range(self.max_deriv):
            self._derivs.append(self._derivs[-1].deriv())
        self.name = "chebyshev"
        self.params = list(map(float, coeffs))
        self.smoothness_m = smoothness_m
        super().__init__(normalized_tail=normalized_tail)

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


def get_profile(name: str, params: Optional[Sequence[float]] = None,
                normalized_tail: Optional[bool] = None) -> RefractiveProfile:
    """Instantiate a registered named profile."""
    args = list(params) if params else []
    if name in _ALIASES:
        name, default_args = _ALIASES[name]
        args = args or list(default_args)
    if name not in NAMED_PROFILES:
        raise KeyError(f"unknown profile name {name!r}; "
                       f"known: {sorted(NAMED_PROFILES) + sorted(_ALIASES)}")
    kwargs = {}
    if normalized_tail is not None:
        kwargs["normalized_tail"] = normalized_tail
    return NAMED_PROFILES[name](*args, **kwargs)


def profile_from_dict(spec: dict) -> RefractiveProfile:
    """Build a profile from its JSON representation.

    ``{"kind":"named","name":...}`` or
    ``{"kind":"chebyshev","coeffs":[...],"deriv_order":n}``,
    optionally with ``"normalized_tail": true`` and ``"params": [...]``.
    """
    kind = spec.get("kind")
    tail = spec.get("normalized_tail")
    if kind == "named":
        return get_profile(spec["name"], spec.get("params"), normalized_tail=tail)
    if kind == "chebyshev":
        return ChebyshevProfile(
            spec["coeffs"],
            deriv_order=spec.get("deriv_order", 4),
            normalized_tail=bool(tail) if tail is not None else False,
            smoothness_m=spec.get("smoothness_m"),
        )
    raise ValueError(f"unknown profile kind {kind!r}")


def profile_to_dict(profile: RefractiveProfile) -> dict:
    if isinstance(profile, ChebyshevProfile):
        out = {"kind": "chebyshev", "coeffs": profile.params,
               "deriv_order": profile.max_deriv}
    else:
        base = profile.name.split("(")[0]
        out = {"kind": "named", "name": base}
        if profile.params:
            out["params"] = profile.params
    if profile.normalized_tail:
        out["normalized_tail"] = True
    return out


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


class _CumulativeMap:
    """x(r) = int_0^r sqrt(eta), cached at Chebyshev nodes, with inverse.

    Node-to-node panels are integrated by adaptive quadrature once; forward
    evaluation uses barycentric interpolation through the nodes (spectrally
    accurate for smooth eta), the inverse a linear seed plus safeguarded
    Newton steps on the exact derivative sqrt(eta).
    """

    def __init__(self, profile: RefractiveProfile, n_nodes: int = _N_CHEB):
        self.profile = profile
        j = np.arange(n_nodes + 1)
        nodes = 0.5 * (1.0 - np.cos(np.pi * j / n_nodes))   # Chebyshev-Lobatto on [0,1]
        nodes[0], nodes[-1] = 0.0, 1.0
        f = lambda r: float(np.sqrt(profile.eta(r)))
        panels = np.empty(n_nodes)
        for i in range(n_nodes):
            val, err = integrate.quad(f, nodes[i], nodes[i + 1],
                                      epsabs=1e-14, epsrel=1e-13, limit=200)
            if err > 1e-12:
                raise QuadratureFailure(
                    f"travel-time panel [{nodes[i]}, {nodes[i+1]}] error {err}")
            panels[i] = val
        self.nodes = nodes
        self.values = np.concatenate([[0.0], np.cumsum(panels)])
        self.total = float(self.values[-1])
        self._interp = BarycentricInterpolator(nodes, self.values)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = self._interp(r)
        return out if out.shape else float(out)

    def inverse(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        if np.any(xv < -1e-12) or np.any(xv > self.total + 1e-12):
            raise ValueError("x outside [0, a]")
        xv = np.clip(xv, 0.0, self.total)
        r = np.interp(xv, self.values, self.nodes)
        for _ in range(6):
            fr = np.atleast_1d(self._interp(r)) - xv
            dr = fr / np.sqrt(self.profile.eta(r))
            r = np.clip(r - dr, 0.0, 1.0)
            if np.max(np.abs(dr)) < 1e-15:
                break
        return float(r[0]) if scalar else r


@dataclass
class LiouvilleData:
    """Travel time, monotone change of variables, and Schroedinger potential."""

    a: float
    x_of_r: Callable
    r_of_x: Callable
    q: Callable
    q_mean: float
    profile: RefractiveProfile = field(repr=False)

    def q_abs_integral(self) -> float:
        """int_0^a |q(x)| dx, for residual normalization."""
        val, _ = integrate.quad(
            lambda r: abs(self._q_of_r(r)) * math.sqrt(float(self.profile.eta(r))),
            0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
        return val

    def _q_of_r(self, r):
        p = self.profile
        e = p.eta(r)
        return p.eta(r, 2) / (4.0 * e * e) - 5.0 / 16.0 * p.eta(r, 1) ** 2 / e**3


def travel_time(profile: RefractiveProfile) -> float:
    """a = int_0^1 sqrt(eta(r)) dr via the cached panel quadrature."""
    return profile.cumulative_map().total


def liouville_transform(profile: RefractiveProfile) -> LiouvilleData:
    """Build the Liouville data (a, x(r), r(x), q(x), mean of q)."""
    profile.eta(0.5, 2)  # raises DerivativeUnavailable early if unsupported
    cum = profile.cumulative_map()

    def q_of_r(r):
        e = profile.eta(r)
        return profile.eta(r, 2) / (4.0 * e * e) - 5.0 / 16.0 * profile.eta(r, 1) ** 2 / e**3

    def q(x):
        return q_of_r(cum.inverse(x))

    q_mean, err = integrate.quad(
        lambda r: q_of_r(r) * math.sqrt(float(profile.eta(r))),
        0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=200)
    if err > 1e-10:
        raise QuadratureFailure(f"q_mean quadrature error {err}")
    data = LiouvilleData(a=cum.total, x_of_r=cum, r_of_x=cum.inverse,
                         q=q, q_mean=float(q_mean), profile=profile)
    return data


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
