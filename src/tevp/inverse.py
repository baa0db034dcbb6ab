"""Computable ingredients of the uniqueness theorems.

The uniqueness statements themselves are not algorithms; what is checkable
numerically is (a) the subinterval arithmetic linking the known part of the
profile to the known part of the transformed potential, (b) the identity
between the two expressions for the Wronskian function

    g(k) = int_0^{x0} (q~ - q) phi phi~ dx
         = phi~'(a,k) phi(a,k) - phi~(a,k) phi'(a,k),

valid when q = q~ on [x0, a], and (c) the eigenvalue-density threshold
alpha > a + 1 - 2b.  This module verifies those ingredients; it makes no
attempt to reconstruct a profile from spectra.  phi and phi~ come from the
x-form of the RK8 engine in ``forward``, for all k at once; the integral is
a Gauss-Legendre quadrature over the propagated node values, never W(x0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import _rk8
from .asymptotics import nonreal_count
from .errors import RegimeError
from .forward import _finite_k, _integrate_batch, _rk8_polynomials
from .profiles import (RefractiveProfile, _known_keys, _real_numbers, liouville_transform,
                       load_profile, subinterval_boundary, travel_time)

__all__ = [
    "UniquenessScenario",
    "SubintervalResult",
    "smooth_bump",
    "theorem3_epsilon",
    "wronskian_g",
    "theorem4_threshold",
    "density_estimate",
    "load_scenario",
]


def smooth_bump(amplitude: float, center: float, width: float) -> Callable:
    """C-infinity bump A*exp(-1/(1-t^2)), t = (x-center)/width, support |t|<1;
    all three finite real numbers, width > 0, else ValueError."""
    if not (_real_numbers(v := [amplitude, center, width]) and np.isfinite(v).all() and width > 0):
        raise ValueError("bump amplitude, center and width must be finite real numbers, "
                         f"width > 0, got {amplitude!r}, {center!r}, {width!r}")
    def bump(x):
        x = np.asarray(x, dtype=float)
        t = (x - center) / width
        inside = np.abs(t) < 1.0
        t_safe = np.where(inside, t, 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            v = np.where(inside, np.exp(-1.0 / (1.0 - t_safe ** 2)), 0.0)
        return amplitude * v
    return bump


@dataclass
class UniquenessScenario:
    """A potential pair (q, q~) on [0, a] agreeing on [x0, a].

    ``phi_slope`` is phi'(0): eta(0)^{-1/4} when the potential comes from a
    profile, 1.0 for a raw potential pair (the Wronskian identity holds for
    any common normalization).
    """
    q: Callable
    q_tilde: Callable
    a: float
    x0: float
    phi_slope: float = 1.0
    b: float | None = None
    alpha: float | None = None
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.x0 <= self.a):
            raise ValueError(f"agreement point x0={self.x0} outside (0, a]")
        grid = np.linspace(self.x0, self.a, 257)
        gap = float(np.max(np.abs(np.asarray(self.q(grid))
                                  - np.asarray(self.q_tilde(grid)))))
        if gap > 1e-10:
            raise ValueError(
                f"potentials differ by {gap:.3e} on the agreement interval")

    def _wronskian_grid(self, n_panels: int):
        """The k-independent part of ``wronskian_g``, with [0, x0] in ``n_panels`` panels.

        The panels' Gauss-Legendre nodes are step edges; [x0, a] takes steps no
        wider than their widest gap.  q and q~ are called on all RK8 stage
        nodes, again after each doubling of the panels while q~ - q is not
        resolved.  Only the latest (n_panels, q, q~) is kept.
        """
        key = (n_panels, self.q, self.q_tilde)
        if key not in self._grids:
            gap = 0.5 * self.x0 / n_panels * np.diff(_GL_X).max()
            tail = np.linspace(self.x0, self.a, 2 + int((self.a - self.x0) / gap))
            for n in n_panels * 2 ** np.arange(4):
                width = self.x0 / n
                left = width * np.arange(n)[:, None]
                panels = np.concatenate([left, left + 0.5 * width * (1.0 + _GL_X)], axis=1)
                edges = np.concatenate([panels.ravel(), tail])
                h = np.diff(edges)
                x = edges[:-1, None] + h[:, None] * _rk8.C
                q = np.stack([np.asarray(f(x), dtype=float) for f in (self.q, self.q_tilde)])
                nodes = np.flatnonzero(np.arange(panels.size) % panels.shape[1])
                dq = q[1, nodes, 0] - q[0, nodes, 0]     # stage 0 of a step sits on its left edge
                if np.abs(dq.reshape(n, -1) @ _GL_TAIL).max() <= _TAIL * np.abs(dq).max():
                    break
            coef = np.stack([_rk8_polynomials(np.ones_like(s), h, s) for s in q], axis=2)
            weights_dq = np.tile(0.5 * width * _GL_W, n) * dq
            self._grids = {key: (nodes, weights_dq, coef, h.max(), np.abs(q).max())}
        return self._grids[key]


class SubintervalResult(NamedTuple):
    epsilon: float        # inner endpoint of the known subinterval of eta
    x0: float             # Liouville image: q is known on [x0, a]


def theorem3_epsilon(profile: RefractiveProfile) -> SubintervalResult:
    """The subinterval endpoint with optical mass (a-1)/2 from the boundary.

    Knowing eta on [epsilon, 1] is equivalent to knowing the transformed
    potential on [(a+1)/2, a].
    """
    a = travel_time(profile)
    if a <= 1.0:
        raise RegimeError(f"travel time a={a:.6f} <= 1; no subinterval condition")
    eps = subinterval_boundary(profile, 0.5 * (a - 1.0))
    return SubintervalResult(epsilon=eps, x0=0.5 * (a + 1.0))


# ---------------------------------------------------------------------------
# Wronskian function
# ---------------------------------------------------------------------------


_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)   # nodes and weights of one panel
# Legendre coefficients c6, c7 from node values: c_j = (j + 1/2) sum_i w_i P_j(x_i) f_i
_GL_TAIL = np.polynomial.legendre.legvander(_GL_X, 7)[:, 6:] * (_GL_W[:, None] * [6.5, 7.5])
# panels per unit length and per radian of max|k| x0; resolved: |c6|, |c7| <= _TAIL max|q~ - q|
_PANELS_PER_UNIT, _PANELS_PER_RADIAN, _TAIL = 64, 1.5, 5e-5


def wronskian_g(scenario: UniquenessScenario, k):
    """g(k) computed two independent ways: quadrature and boundary Wronskian.

    Returns (g_integral, g_wronskian), complex for a scalar k and arrays for
    an array of k.  phi and phi~ are propagated for every k at once on the
    RK8 grid of ``UniquenessScenario._wronskian_grid``.  g_integral is the
    Gauss-Legendre quadrature of (q~ - q) phi phi~ over the grid's nodes in
    [0, x0], and g_wronskian = phi~'(a) phi(a) - phi~(a) phi'(a); their
    difference is the identity check.  A non-finite k raises ValueError.
    """
    ks = _finite_k(k)
    if ks.size == 0:
        return ks.copy(), ks.copy()
    n_panels = int(np.ceil(scenario.x0 * max(_PANELS_PER_UNIT,
                                             _PANELS_PER_RADIAN * float(np.abs(ks).max()))))
    nodes, weights_dq, coef, h_max, q_max = scenario._wronskian_grid(n_panels)
    # the state grows by at most exp(h (|Im k| + sqrt(max |q|))) over a step of width h
    growth = h_max * (np.abs(ks.imag).max() + np.sqrt(q_max))
    u, log_scale, phi, phi_log = _integrate_batch(coef, ks.ravel(), growth, path=True)
    norm = scenario.phi_slope ** 2      # phi, phi~ start from slope 1; g is bilinear in them
    g_int = norm * (weights_dq @ (phi[nodes, 0] * phi[nodes, 1]
                                  * np.exp(phi_log[nodes].sum(axis=1))))
    g_wron = norm * (u[1, 1] * u[0, 0] - u[0, 1] * u[1, 0]) * np.exp(log_scale.sum(axis=0))
    if ks.ndim == 0:
        return complex(g_int[0]), complex(g_wron[0])
    return g_int.reshape(ks.shape), g_wron.reshape(ks.shape)


# ---------------------------------------------------------------------------
# density threshold
# ---------------------------------------------------------------------------


def theorem4_threshold(a: float, b: float) -> float:
    """The density threshold a + 1 - 2b for the known-mass parameter b.

    The boundary b = (a-1)/2 gives exactly 2, the largest admissible value.
    """
    if a <= 1.0:
        raise RegimeError(f"travel time a={a:.6f} <= 1")
    if b < 0.5 * (a - 1.0) - 1e-12:
        raise RegimeError(f"b={b} below the minimum mass (a-1)/2")
    # (a - 2b) + 1 rather than a + 1 - 2b: exact when b = (a-1)/2, since
    # a - 1 and the halving are both exact in binary floating point
    thr = (a - 2.0 * b) + 1.0
    if not (0.0 <= thr <= 2.0):
        raise ValueError(f"threshold {thr} outside [0, 2]: b out of range")
    return thr


def density_estimate(zeros, r: float) -> float:
    """alpha_hat = N_D(r) * pi / (2r), N_D = ``nonreal_count(zeros, r)``."""
    return nonreal_count(zeros, r) * math.pi / (2.0 * r)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------


def _potential_from_ref(ref):
    """A (q, a, phi_slope) triple from a scenario potential reference.

    Accepts a profile name/path (string), or a dict with either
    {"profile": ref} or {"base": ref, "bump": {"amplitude", "center",
    "width"}} adding a compactly supported perturbation to the base
    potential; any other key is a ValueError.
    """
    if isinstance(ref, str):
        profile = load_profile(ref)
        lv = liouville_transform(profile)
        return lv.q, lv.a, float(profile.eta(0.0)) ** (-0.25)
    if not (isinstance(ref, dict) and {"profile", "base"} & set(ref)):
        raise ValueError(f"unrecognized potential reference {ref!r}")
    _known_keys(ref, {"profile"} if "profile" in ref else {"base", "bump"}, "a potential")
    if "profile" in ref:
        return _potential_from_ref(ref["profile"])
    q0, a, slope = _potential_from_ref(ref["base"])
    if (bump := ref.get("bump")) is None:
        return q0, a, slope
    _known_keys(bump, {"amplitude", "center", "width"}, "a bump")
    pert = smooth_bump(bump["amplitude"], bump["center"], bump["width"])
    return (lambda x: np.asarray(q0(x)) + pert(x)), a, slope


def load_scenario(path_or_dict) -> UniquenessScenario:
    """Build a scenario from a JSON file or an equivalent dict.

    Schema, any other key or a number not real a ValueError: {"q": ref, "q_tilde": ref,
    "agree_from": x0, "b": .., "alpha": ..}, b and alpha optional; see _potential_from_ref.
    """
    if isinstance(path_or_dict, dict):
        data = path_or_dict
    else:
        with open(path_or_dict) as fh:
            data = json.load(fh)
    _known_keys(data, {"q", "q_tilde", "agree_from", "b", "alpha"}, "a scenario")
    for key in ("agree_from", "b", "alpha"):
        if key in data and not _real_numbers([data[key]]):
            raise ValueError(f"scenario {key!r} must be a real number, got {data[key]!r}")
    q, a, slope = _potential_from_ref(data["q"])
    qt, a_t, slope_t = _potential_from_ref(data["q_tilde"])
    if abs(a - a_t) > 1e-10:
        raise ValueError(f"travel times differ: {a} vs {a_t}")
    if abs(slope - slope_t) > 1e-10:
        raise ValueError("normalizations phi'(0) differ between the potentials")
    return UniquenessScenario(q=q, q_tilde=qt, a=a,
                              x0=float(data["agree_from"]),
                              phi_slope=slope,
                              b=data.get("b"), alpha=data.get("alpha"))
