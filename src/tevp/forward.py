"""Shooting for y'' + k^2 eta(r) y = 0 and the characteristic function.

The characteristic function whose zeros encode the transmission spectrum is

    d(k) = y'(1,k) sin(k)/k - y(1,k) cos(k),

with y(0,k)=0, y'(0,k)=1.  Its k-derivative comes from v = dy/dk, which
solves the variational system v'' + k^2 eta v = -2 k eta y.

Two integration paths are provided:

* ``solve_ivp`` / ``characteristic``: adaptive DOP853 per spectral point,
  the production path for individual evaluations;
* ``characteristic_batch`` / ``log_derivative_batch``: fixed-step RK8 over
  an array of k on a shared r-grid.  Each step of (y, y') is a 2x2 matrix
  P whose entries are polynomials of degree 6 in lam = k^2, built once per
  (profile, step count) from eta at the stage nodes; a batch evaluates P
  and dP/dlam for a block of steps with one matrix product, then applies
  u -> P u, v -> P v + 2k P' u (RK8 on the variational system).  Contour
  quadrature and zero search run on this path; the two paths cross-check
  each other in the test suite.

All boundary quantities are stored with a common ``scale_log`` so that
true value = stored value * exp(scale_log); this keeps magnitudes
representable when |Im k| is large (d grows like exp((1+a)|Im k|)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp as _scipy_solve_ivp

from . import _rk8
from .errors import StepUnderflow
from .profiles import RefractiveProfile

__all__ = [
    "BoundaryValues",
    "CharacteristicValue",
    "solve_ivp",
    "characteristic",
    "characteristic_batch",
    "log_derivative_batch",
    "scaled_characteristic",
]

_RESCALE_LIMIT = 1e50     # renormalization threshold between blocks of the batch engine
_SMALL_K = 1e-3           # below this |k|, trig ratios switch to series
_DEGREE = 6               # RK8 step-matrix entries are polynomials of this degree in k^2
_BUILD_CHUNK = 128        # steps per chunk when building the step polynomials
_BLOCK_POINTS = 8192      # (step, k) pairs evaluated per block of the batch engine
_BLOCK_GROWTH = 115.0     # bound on the log growth of the state within one block


@dataclass
class BoundaryValues:
    """y(1,k), y'(1,k); true values are the stored ones times exp(scale_log)."""
    y1: complex
    dy1: complex
    scale_log: float


@dataclass
class CharacteristicValue:
    """d(k) and dd/dk, common scale convention as BoundaryValues."""
    d: complex
    d_prime: complex
    scale_log: float

    def value(self) -> complex:
        return self.d * np.exp(self.scale_log)


# ---------------------------------------------------------------------------
# scaled trigonometry
# ---------------------------------------------------------------------------


def _scaled_trig(k):
    """Return (sin k, cos k, sinc k, (k cos k - sin k)/k^2) times exp(-|Im k|).

    All four stay O(1) for any complex k; the common removed factor is
    exp(|Im k|).
    """
    k = np.asarray(k, dtype=complex)
    t = np.abs(k.imag)
    ep = np.exp(1j * k - t)      # real part of exponent <= 0
    em = np.exp(-1j * k - t)
    sin_s = (ep - em) / 2j
    cos_s = (ep + em) / 2.0
    small = np.abs(k) < _SMALL_K
    if np.any(small):
        ks = np.where(small, k, 1.0)
        k2 = ks * ks
        sinc_series = 1.0 - k2 / 6.0 + k2 * k2 / 120.0
        sp_series = -ks / 3.0 + ks * k2 / 30.0
        kden = np.where(small, 1.0, k)
        sinc_s = np.where(small, sinc_series, sin_s / kden)
        sprime_s = np.where(small, sp_series, (k * cos_s - sin_s) / kden**2)
    else:
        sinc_s = sin_s / k
        sprime_s = (k * cos_s - sin_s) / (k * k)
    return sin_s, cos_s, sinc_s, sprime_s


# ---------------------------------------------------------------------------
# fixed-step engine: RK8 step matrices as polynomials in lam = k^2
# ---------------------------------------------------------------------------


def grid_steps(profile: RefractiveProfile, kmax: float, per_radian: float) -> int:
    """Fixed step count giving ``per_radian`` steps per radian of phase at kmax."""
    return max(64, int(np.ceil(per_radian * kmax * np.sqrt(profile.eta_max))))


def steps_for(profile: RefractiveProfile, kmax: float, tol: float = 1e-11) -> int:
    """Fixed step count resolving the fastest oscillation at ~8 steps/radian."""
    return grid_steps(profile, kmax, 8.0 if tol >= 1e-12 else 11.0)


def _step_polynomials(profile: RefractiveProfile, n_steps: int,
                      degree: int = _DEGREE) -> np.ndarray:
    """Coefficients P[i, entry, p] of the RK8 step matrices in lam = k^2.

    Step i maps (y, y') at r = i/n to r = (i+1)/n through the 2x2 matrix
    with entry (row, col) = sum_p P[i, 2*row + col, p] lam^p.  Each stage
    of y' = z, z' = -lam eta y multiplies by [[0, 1], [-lam eta, 0]], so the
    coefficients are built stage by stage as polynomials, ``_BUILD_CHUNK``
    steps at a time; powers above ``degree`` are dropped (they vanish).
    """
    h = 1.0 / n_steps
    A, B, C = _rk8.A, _rk8.B, _rk8.C
    eye = np.eye(2)[:, :, None] * (np.arange(degree + 1) == 0)   # the polynomial matrix I
    out = np.empty((n_steps, 4, degree + 1))
    for start in range(0, n_steps, _BUILD_CHUNK):
        i = np.arange(start, min(start + _BUILD_CHUNK, n_steps))
        eta = np.asarray(profile.eta(np.clip((i[:, None] + C) * h, 0.0, 1.0)), dtype=float)
        stages = []
        step = np.broadcast_to(eye, (i.size,) + eye.shape).copy()
        for s in range(_rk8.N_STAGES):
            w = np.broadcast_to(eye, step.shape).copy()
            for j in np.nonzero(A[s, :s])[0]:
                w += (h * A[s, j]) * stages[j]
            f = np.zeros_like(w)
            f[:, 0] = w[:, 1]
            f[:, 1, :, 1:] = -eta[:, s, None, None] * w[:, 0, :, :-1]
            stages.append(f)
            if B[s]:
                step += (h * B[s]) * f
        out[i] = step.reshape(i.size, 4, degree + 1)
    return out


def _integrate_batch(profile: RefractiveProfile, k: np.ndarray, n_steps: int):
    """Propagate (y, y', v, v') over r in [0,1] for every k in the batch.

    Steps run in blocks of at most ``_BLOCK_POINTS`` (step, k) pairs, over
    which the state grows by less than exp(_BLOCK_GROWTH); the state is
    renormalized between blocks.  Returns (u, log_scale): u has shape
    (4, len(k)); true values are u * exp(log_scale).  The whole state is
    renormalized jointly, so the ratio structure (and hence d'/d) is
    preserved exactly.
    """
    k = np.asarray(k, dtype=complex).ravel()
    coef = profile.grid_cached(("rk8", n_steps), lambda: _step_polynomials(profile, n_steps))
    powers = np.cumprod([np.ones(k.size)] + [k * k] * _DEGREE, axis=0)     # lam^p
    dpowers = np.zeros_like(powers)                                        # 2k d(lam^p)/dlam
    dpowers[1:] = (2.0 * np.arange(1, _DEGREE + 1))[:, None] * k * powers[:-1]
    powers = np.concatenate([powers, dpowers], axis=1).view(float)
    growth = np.sqrt(profile.eta_max) * np.abs(k.imag).max() / n_steps     # per step
    block = max(1, min(_BLOCK_POINTS // k.size, int(_BLOCK_GROWTH / max(growth, 1e-9))))
    state = np.zeros((4, k.size), dtype=complex)
    state[1] = 1.0
    log_scale = np.zeros(k.size)
    for i0 in range(0, n_steps, block):
        i1 = min(i0 + block, n_steps)
        mats = (coef[i0:i1].reshape(-1, _DEGREE + 1) @ powers).view(complex)
        u, v = state[:2], state[2:]
        for m in mats.reshape(i1 - i0, 2, 2, 2 * k.size):
            P, dP = m[..., :k.size], m[..., k.size:]
            v = P[:, 0] * v[0] + P[:, 1] * v[1] + dP[:, 0] * u[0] + dP[:, 1] * u[1]
            u = P[:, 0] * u[0] + P[:, 1] * u[1]
        state = np.concatenate([u, v])
        scale = np.abs(state).max(axis=0)
        big = scale > _RESCALE_LIMIT
        if big.any():
            state[:, big] /= scale[big]
            log_scale[big] += np.log(scale[big])
    return state, log_scale


def characteristic_batch(profile: RefractiveProfile, k, tol: float = 1e-11,
                         n_steps: int | None = None):
    """Evaluate d and d' at an array of k on a shared fixed grid.

    Returns (d_s, dp_s, scale_log) with true d = d_s * exp(scale_log);
    d'/d = dp_s/d_s, independent of the scale.
    """
    k = np.asarray(k, dtype=complex).ravel()
    if k.size == 0:
        return k.copy(), k.copy(), np.zeros(0)
    if n_steps is None:
        n_steps = steps_for(profile, float(np.abs(k).max()), tol)
    u, log_scale = _integrate_batch(profile, k, n_steps)
    y1, dy1, v1, dv1 = u
    sin_s, cos_s, sinc_s, sprime_s = _scaled_trig(k)
    d_s = dy1 * sinc_s - y1 * cos_s
    dp_s = dv1 * sinc_s + dy1 * sprime_s - v1 * cos_s + y1 * sin_s
    return d_s, dp_s, log_scale + np.abs(k.imag)


def log_derivative_batch(profile: RefractiveProfile, k, tol: float = 1e-11,
                         n_steps: int | None = None):
    """d'(k)/d(k) over an array of k (scale factors cancel exactly)."""
    d_s, dp_s, _ = characteristic_batch(profile, k, tol, n_steps)
    return dp_s / d_s


def scaled_characteristic(profile: RefractiveProfile, k, tol: float = 1e-11,
                          n_steps: int | None = None):
    """D(k) = d(k) * k * exp(-(1+a)|Im k|), the overflow-safe search target."""
    from .profiles import travel_time
    a = travel_time(profile)
    k = np.asarray(k, dtype=complex).ravel()
    d_s, _, scale_log = characteristic_batch(profile, k, tol, n_steps)
    return d_s * k * np.exp(scale_log - (1.0 + a) * np.abs(k.imag))


# ---------------------------------------------------------------------------
# adaptive scalar path
# ---------------------------------------------------------------------------


def _adaptive_boundary(profile, k, tol, augmented):
    k = complex(k)
    kk = k * k

    if augmented:
        def rhs(r, w):
            e = profile.eta(r)
            return [w[1], -kk * e * w[0], w[3], -kk * e * w[2] - 2.0 * k * e * w[0]]
        w0 = np.array([0, 1, 0, 0], dtype=complex)
    else:
        def rhs(r, w):
            e = profile.eta(r)
            return [w[1], -kk * e * w[0]]
        w0 = np.array([0, 1], dtype=complex)

    growth = (1.0 + np.sqrt(profile.eta_max)) * abs(k.imag)
    if growth > 600.0:
        # adaptive path would overflow; fall back to the renormalizing engine
        u, ls = _integrate_batch(profile, np.array([k]), steps_for(profile, abs(k), tol))
        return u[:, 0], float(ls[0])

    max_step = 0.5 / max(1.0, abs(k))
    sol = _scipy_solve_ivp(rhs, (0.0, 1.0), w0, method="DOP853",
                           rtol=tol, atol=tol, max_step=max_step, dense_output=False)
    if not sol.success:
        raise StepUnderflow(f"DOP853 failed at k={k}: {sol.message}")
    return sol.y[:, -1], 0.0


def solve_ivp(profile: RefractiveProfile, k: complex, tol: float = 1e-12,
              init=None) -> BoundaryValues:
    """Boundary values y(1,k), y'(1,k) of the shooting solution.

    ``init`` overrides the initial data (y(0), y'(0)); default (0, 1).
    """
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError("tol must lie in [1e-13, 1e-6]")
    if init is not None:
        k = complex(k)
        kk = k * k

        def rhs(r, w):
            e = profile.eta(r)
            return [w[1], -kk * e * w[0]]

        sol = _scipy_solve_ivp(rhs, (0.0, 1.0), np.asarray(init, dtype=complex),
                               method="DOP853", rtol=tol, atol=tol,
                               max_step=0.5 / max(1.0, abs(k)))
        if not sol.success:
            raise StepUnderflow(f"DOP853 failed at k={k}: {sol.message}")
        y1, dy1 = sol.y[:, -1]
        return BoundaryValues(y1=y1, dy1=dy1, scale_log=0.0)
    u, scale_log = _adaptive_boundary(profile, k, tol, augmented=False)
    return BoundaryValues(y1=u[0], dy1=u[1], scale_log=scale_log)


def characteristic(profile: RefractiveProfile, k: complex,
                   tol: float = 1e-12) -> CharacteristicValue:
    """d(k) and dd/dk at a single (possibly complex) k.

    The removable singularity at k = 0 is handled by series evaluation of
    sin(k)/k and (k cos k - sin k)/k^2.
    """
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError("tol must lie in [1e-13, 1e-6]")
    u, scale_log = _adaptive_boundary(profile, k, tol, augmented=True)
    y1, dy1, v1, dv1 = u
    karr = np.asarray([k], dtype=complex)
    sin_s, cos_s, sinc_s, sprime_s = (z[0] for z in _scaled_trig(karr))
    d_s = dy1 * sinc_s - y1 * cos_s
    dp_s = dv1 * sinc_s + dy1 * sprime_s - v1 * cos_s + y1 * sin_s
    return CharacteristicValue(d=d_s, d_prime=dp_s,
                               scale_log=scale_log + abs(karr[0].imag))
