"""Shooting for y'' + k^2 eta(r) y = 0 and the characteristic function.

The characteristic function whose zeros encode the transmission spectrum is

    d(k) = y'(1,k) sin(k)/k - y(1,k) cos(k),

with y(0,k)=0, y'(0,k)=1.  Its k-derivative comes from v = dy/dk, which
solves the variational system v'' + k^2 eta v = -2 k eta y.

One fixed-step RK8 engine, ``_integrate_batch``, propagates arrays of k.
Each step of y'' = (s - k^2 c) y is a 2x2 matrix P whose entries are
polynomials of degree 6 in lam = k^2, built from c and s at the stage nodes, one
contraction of the stacked stage derivatives per stage (``_rk8_polynomials``); the
engine evaluates P and dP/dk for a block of rows with one matrix product, then
applies u -> P u, v -> P v + P' u: one block product [[P, 0], [P', P]] per row up to
``_BLOCK_COLUMNS`` columns, else a row loop that adds the terms in the same order, so
a k's result does not depend on its batch.  The r-form (c = eta, s = 0 on [0, 1])
takes n steps uniform in optical depth, each of phase k a / n (``_step_nodes``), and
composes G into a row (``_composed_steps``; ``_composed_table`` keeps the last 16
tables by profile, n and disk).  Uncentred, G = 8 in mu = (k u)^2, u = a/n rounded to
a power of two, where the coefficients stay representable: a row spans 8/3.5 = 2.29
rad at the largest |k| of a search grid, so its monomial sum loses under a digit.  A
search's disk |k - c| <= R, c real, centres the table on eps = (k^2 - c^2) u^2 with
the largest G whose row spans at most 2.29 rad over the disk (``_table_shape``), so
the loop runs n/G times: 5 rows of 128 steps on the band (145, 150.5, 0, 8), where
uncentred 73 rows of 8 ran.  A table for a disk is cut once to the degree its edge
needs (``_degree_needed``), 12 of 48 uncentred and 24 centred on a search grid (eps
enters to the power where mu entered squared); without a disk, each call cuts it at
its max |mu|.  It serves ``characteristic_batch``, ``characteristic`` and
``solve_ivp``: one step-count rule, 8 steps per radian at max |k|, sizes the default
grid of the first and the start of the last two, which double the steps until they
agree.  The x-form (c = 1, s = q on [0, a]), one row per step, serves
``inverse.wronskian_g``.  Every propagation starts from y = 0, y' = 1.

All boundary quantities are stored with a common ``scale_log`` so that
true value = stored value * exp(scale_log); this keeps magnitudes
representable when |Im k| is large (d grows like exp((1+a)|Im k|)).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _rk8
from .errors import StepUnderflow
from .profiles import RefractiveProfile, travel_time

__all__ = [
    "BoundaryValues",
    "CharacteristicValue",
    "solve_ivp",
    "characteristic",
    "characteristic_batch",
    "scaled_characteristic",
]

_RESCALE_LIMIT = 1e50     # renormalization threshold between blocks of the batch engine
_SMALL_K = 1e-3           # below this |k|, trig ratios switch to series
_DEGREE = 6               # RK8 step-matrix entries are polynomials of this degree in k^2
_GROUP = 8                # r-form RK8 steps composed into one matrix polynomial (2**3)
_BUILD_CHUNK = 128        # steps per chunk when building the step polynomials
_BLOCK_POINTS = 2048      # (step, k) pairs per engine block: 256 KB of matrices, which the
                          # allocator reuses; a 1 MB block took fresh pages on every search
_BLOCK_COLUMNS = 256      # columns up to which a row is one block product, not the row loop
_K_TILE = 4               # k padded to a multiple of this: BLAS rounds a k's rows alike anywhere
_BLOCK_GROWTH = 115.0     # bound on the log growth of the state within one block
_MAX_STEPS = 2**16        # finest grid the accuracy check of the single-point path may use
_PER_RADIAN = 8.0         # steps per radian at max|k|: the default grid, the first check level
_ROW_RADIANS = _GROUP / 3.5   # phase a row spans over its table's disk: 8 steps of a search grid


@dataclass
class BoundaryValues:
    """y(1,k), y'(1,k); true values are the stored ones times exp(scale_log)."""
    y1: complex | np.ndarray
    dy1: complex | np.ndarray
    scale_log: float | np.ndarray


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


def _characteristic_from(u, trig):
    """d and d' times exp(-|Im k|) from (y, y', v, v') at r = 1 and ``_scaled_trig(k)``."""
    y1, dy1, v1, dv1 = u
    sin_s, cos_s, sinc_s, sprime_s = trig
    return dy1 * sinc_s - y1 * cos_s, dv1 * sinc_s + dy1 * sprime_s - v1 * cos_s + y1 * sin_s


# ---------------------------------------------------------------------------
# fixed-step engine: RK8 step matrices as polynomials in lam = k^2
# ---------------------------------------------------------------------------


def grid_steps(profile: RefractiveProfile, kmax: float, per_radian: float) -> int:
    """``per_radian`` steps per radian of the phase kmax a (a the travel time), at least 64."""
    return max(64, int(np.ceil(per_radian * kmax * travel_time(profile))))


def _rk8_polynomials(c: np.ndarray, h: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
    """Coefficients P[i, entry, p] of the RK8 step matrices of y'' = (s - lam c) y.

    ``c`` and ``s`` (None: s = 0) are sampled at the stage nodes of each step, shape
    (n_steps, N_STAGES), and ``h`` holds the step widths.  Step i maps (y, y') across
    its width by the 2x2 matrix with entry (row, col) = sum_p P[i, 2*row + col, p] lam^p,
    built stage by stage, ``_BUILD_CHUNK`` steps at a time, to the degree ``_DEGREE``: with
    the f_j stacked behind I, w = I + h sum_j a_ij f_j and the step are one contraction each.
    """
    eye = np.eye(2)[:, :, None] * (np.arange(_DEGREE + 1) == 0)   # the polynomial matrix I
    tableau = np.vstack([_rk8.A, _rk8.B])                         # row N_STAGES: the step
    out = np.empty((len(h), 4, _DEGREE + 1))
    for start in range(0, len(h), _BUILD_CHUNK):
        i = slice(start, start + _BUILD_CHUNK)
        hi = h[i, None, None]
        weights = np.ones((len(hi),) + (len(tableau),) * 2)
        weights[..., 1:] = hi * tableau                   # 1 on I, then h a_ij and h b_j
        f = np.zeros((len(tableau), len(hi)) + eye.shape)   # I, then f_0 ... f_11
        f[0] = eye
        for st in range(_rk8.N_STAGES):
            w = np.einsum("nj,jnabp->nabp", weights[:, st, :st + 1], f[:st + 1])
            f[st + 1, :, 0] = w[:, 1]
            f[st + 1, :, 1, :, 1:] = -c[i, st, None, None] * w[:, 0, :, :-1]
            if s is not None:
                f[st + 1, :, 1] += s[i, st, None, None] * w[:, 0]
        out[i] = np.einsum("nj,jnabp->nabp", weights[:, -1], f).reshape(-1, 4, _DEGREE + 1)
    return out


def _step_nodes(profile: RefractiveProfile, n_steps: int) -> np.ndarray:
    """Edges 0 = r_0 < ... < r_n = 1 of n_steps steps of optical depth a / n_steps each."""
    r = profile.cumulative_map().inverse(np.linspace(0.0, travel_time(profile), n_steps + 1))
    r[0], r[-1] = 0.0, 1.0
    return r


def _mu_unit(profile: RefractiveProfile, n_steps: int) -> float:
    """a / n_steps, the phase per step at k = 1, rounded to a power of two: exact to scale by."""
    return 2.0 ** -round(np.log2(n_steps / travel_time(profile)))


def _step_polynomials(profile: RefractiveProfile, r: np.ndarray):
    """Step polynomials of the r-form y'' = -lam eta y between consecutive edges ``r``."""
    h = np.diff(r)
    eta = profile.eta(np.clip(r[:-1, None] + _rk8.C * h[:, None], 0.0, 1.0))
    return _rk8_polynomials(np.asarray(eta, dtype=float), h)


def _composed_steps(profile: RefractiveProfile, n_steps: int, disk=None) -> np.ndarray:
    """The r-form step polynomials on ``_step_nodes`` composed G at a time, (c, R, G) the
    ``_table_shape`` of ``disk``, in eps = (lam - c^2) u^2, u = ``_mu_unit``.

    Identity steps pad n_steps to a multiple of G; row i spans steps G i ... G (i + 1)
    - 1.  In lam its top coefficients would underflow.  A centred table shifts each step
    to eps before any is composed, and each pairing round keeps the degrees
    ``_degree_needed`` keeps at the disk's largest |eps| (at most _GROUP _DEGREE).
    Built ``_BUILD_CHUNK`` _GROUP steps (or one row, if longer) at a time from slices of
    one node array, so the build needs little more memory than an uncentred table and
    equals a one-shot build.  A pairing round forms b_p a for _DEGREE + 1 coefficients p
    at once and adds them in the order of p.
    """
    centre, radius, per_row = _table_shape(profile, n_steps, disk)
    unit, r = _mu_unit(profile, n_steps), _step_nodes(profile, n_steps)
    q, j = np.arange(_DEGREE + 1)[:, None], np.arange(_DEGREE + 1)
    shift = np.vectorize(math.comb)(q, j) * (centre * unit) ** (2 * abs(q - j))   # mu -> eps
    eps_max = radius * (2.0 * abs(centre) + radius) * unit ** 2    # |k^2 - c^2| <= R (R + 2|c|)
    eye = np.eye(2).reshape(4, 1) * (np.arange(_DEGREE + 1) == 0)
    span = max(_BUILD_CHUNK * _GROUP, per_row)
    out = np.zeros((-(-n_steps // per_row), 4, _GROUP * _DEGREE + 1))
    for start in range(0, n_steps, span):
        coef = _step_polynomials(profile, r[start:start + span + 1]) * unit ** (-2 * j)
        coef = coef @ shift if per_row > _GROUP else coef
        pad = np.broadcast_to(eye, (-len(coef) % per_row,) + eye.shape)
        m = np.concatenate([coef, pad]).reshape(-1, 2, 2, _DEGREE + 1)
        for _ in range(per_row.bit_length() - 1):    # b @ a, b the later step
            a, b = m[0::2], m[1::2]
            m = np.zeros(a.shape[:-1] + (2 * a.shape[-1] - 1,))
            for p0 in range(0, b.shape[-1], _DEGREE + 1):
                block = np.einsum("nijp,njkq->pnikq", b[..., p0:p0 + _DEGREE + 1], a)
                for p, term in enumerate(block, p0):
                    m[..., p:p + a.shape[-1]] += term
            if per_row > _GROUP:
                keep = _degree_needed(np.abs(m).max(axis=0).reshape(4, -1), eps_max)
                m = m[..., :min(keep, _GROUP * _DEGREE) + 1]
        out[start // per_row:][:len(m), :, :m.shape[-1]] = m.reshape(len(m), 4, -1)
    return out


def _table_shape(profile: RefractiveProfile, n_steps: int, disk=None):
    """(c, R, G) for k in ``disk`` (c, R): G the most steps per row, a power of two up to
    n_steps, that span at most _ROW_RADIANS over the disk (G R a / n_steps).  A disk that
    gains no G above _GROUP, or none, gets the uncentred table: (0, |c| + R or inf, _GROUP)."""
    if disk is None:
        return 0.0, math.inf, _GROUP
    centre, radius = disk
    if not (math.isfinite(centre) and 0.0 < radius < math.inf):
        raise ValueError(f"disk must be a real centre and a positive radius, got {disk!r}")
    longest = min(_ROW_RADIANS * n_steps / (radius * travel_time(profile)), n_steps)
    per_row = _GROUP * 2 ** max(0, math.floor(math.log2(longest / _GROUP)))
    return (centre, radius, per_row) if per_row > _GROUP else (0.0, abs(centre) + radius, _GROUP)


def _degree_needed(size: np.ndarray, mu_max: float) -> int:
    """Smallest degree D that rows with per-degree sizes ``size`` need at |mu| <= mu_max.

    ``size[e, p]`` is the largest |coefficient| of entry e at degree p over the
    table's rows.  Degrees above D are dropped when, for every entry, their sum
    sum_{p>D} size[e, p] mu_max^p is at most 2^-54 of the entry's largest term:
    below the rounding of the full sum.
    """
    terms = size * mu_max ** np.arange(size.shape[-1])
    tail = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]             # tail[e, p] = sum_{q>=p}
    return int((tail > 2.0**-54 * terms.max(axis=1, keepdims=True)).sum(axis=1).max()) - 1


def _integrate_batch(coef: np.ndarray, k: np.ndarray, growth: float, *,
                     path: bool = False, lam_scale: float = 1.0, centre: float = 0.0):
    """Propagate (y, y', v, v') = (y, y', dy/dk, dy'/dk) from y = 0, y' = 1.

    ``coef`` holds step polynomials in eps = lam_scale (k^2 - centre^2), shape (n_steps, 4,
    [G,] degree+1) for G equations side by side, and ``growth`` bounds the log
    growth of the state over one step.  Blocks of rows grow the state by less than
    exp(_BLOCK_GROWTH); between them and after the last, each column is scaled jointly by
    a power of two, exactly.  Up to _BLOCK_COLUMNS columns a row is one block product,
    [u; v] <- [[P, 0], [P', P]] [u; v], two numpy calls; more run the row loop, 12
    products a row to the block's 16.  Both add each entry's terms in one order, and the
    k fill whole tiles of _K_TILE in the BLAS product that evaluates the rows (its rounding
    of a column may follow the column's place), so a k's state depends on k and the table
    alone.  Returns (u, log_scale): u of shape (4, [G,] len(k)), largest entry per column
    in [1/2, 1), true values u * exp(log_scale); ``path`` adds y and its log scale at
    every edge.
    """
    k = np.asarray(k, dtype=complex).ravel()
    n_steps, group, degree = coef.shape[0], coef.shape[2:-1], coef.shape[-1] - 1
    kp = np.full(-(-k.size // _K_TILE) * _K_TILE, complex(centre))   # eps = 0 pads
    kp[:k.size] = k
    powers = np.zeros((degree + 1, 2, kp.size), dtype=complex)   # eps^p, then d(eps^p)/dk
    powers[0, 0] = 1.0
    powers[1:, 0] = lam_scale * (kp - centre) * (kp + centre) if centre else lam_scale * kp * kp
    np.multiply.accumulate(powers[1:, 0], 0, out=powers[1:, 0])
    np.multiply((2.0 * lam_scale * np.arange(1, degree + 1))[:, None] * kp,
                powers[:-1, 0], out=powers[1:, 1])
    powers = powers.reshape(degree + 1, -1).view(float)
    columns = kp.size * math.prod(group)
    by_block = columns <= _BLOCK_COLUMNS     # a block matrix takes twice the bytes of [P | P']
    block = max(1, min(_BLOCK_POINTS // columns >> by_block, int(_BLOCK_GROWTH / (growth or 1e-9))))
    state = np.zeros((4,) + group + (kp.size,), dtype=complex)
    state[1] = 1.0
    exponent = np.zeros(group + (kp.size,), dtype=int)
    ys, ys_exp = [state[0]], [exponent]      # y at every edge, kept with ``path``
    for i0 in range(0, n_steps, block):
        i1 = min(i0 + block, n_steps)
        mats = (coef[i0:i1].reshape(-1, degree + 1) @ powers).view(complex)
        mats = mats.reshape((i1 - i0, 2, 2) + group + (2, kp.size))    # rows of [P | P']
        P, dP = mats[..., 0, :], mats[..., 1, :]
        if by_block:
            rows = np.zeros((i1 - i0, 4, 4) + group + (kp.size,), dtype=complex)
            rows[:, :2, :2] = rows[:, 2:, 2:] = P
            rows[:, 2:, :2] = dP
            for m in rows:            # summed in order over the columns of m: P' u, then P v
                state = np.add.reduce(m * state, axis=1)
                if path:
                    ys.append(state[0])
        else:
            u, v = state[:2], state[2:]
            for p, dp in zip(P, dP):
                v = dp[:, 0] * u[0] + dp[:, 1] * u[1] + p[:, 0] * v[0] + p[:, 1] * v[1]
                u = p[:, 0] * u[0] + p[:, 1] * u[1]
                if path:
                    ys.append(u[0])
            state = np.concatenate([u, v])
        if path:
            ys_exp += [exponent] * (i1 - i0)
        size = np.abs(state).max(axis=0)
        if i1 == n_steps or size.max() > _RESCALE_LIMIT:     # exact, so where it happens is free
            e = np.frexp(size)[1]
            state = state * np.ldexp(1.0, -e)     # a new array: a ``path`` entry views the old
            exponent = exponent + e
    out = (state, exponent * math.log(2.0)) + ((np.array(ys), np.array(ys_exp) * math.log(2.0))
                                               if path else ())
    return tuple(a[..., :k.size] for a in out)


@functools.lru_cache(maxsize=16)
def _composed_table(profile: RefractiveProfile, n_steps: int, disk=None):
    """``_composed_steps`` and the largest |coefficient| per entry and degree over its
    rows, memoized for the last 16 (profile, n_steps, disk) keys.  A table for a disk is
    cut once to the degree ``_degree_needed`` keeps at the disk's edge."""
    coef = _composed_steps(profile, n_steps, disk)
    size = np.abs(coef).max(axis=0)
    if disk is not None:
        centre, radius, _ = _table_shape(profile, n_steps, disk)
        eps_max = radius * (2.0 * abs(centre) + radius) * _mu_unit(profile, n_steps) ** 2
        coef = np.ascontiguousarray(coef[..., :_degree_needed(size, eps_max) + 1])
    return coef, size


def _shoot(profile: RefractiveProfile, k: np.ndarray, n_steps: int, disk=None):
    """The r-form on n_steps steps of phase k a / n_steps, in one engine call: the table
    for ``disk``, or without one the table to the degree ``_degree_needed`` for max|eps|
    of the batch; ValueError if a k lies outside the disk."""
    centre, radius, per_row = _table_shape(profile, n_steps, disk)
    dist = np.abs(k - centre)
    if (reach := dist.max()) > radius:
        raise ValueError(f"k = {k[dist > radius][0]} lies outside the disk |k - {centre}| <= "
                         f"{radius} of its table")
    coef, size = _composed_table(profile, n_steps, disk)
    unit = _mu_unit(profile, n_steps)
    if disk is None:        # then centre = 0 and eps = (k u)^2
        coef = coef[..., :_degree_needed(size, float(reach * unit) ** 2) + 1]
    growth = per_row * travel_time(profile) / n_steps * np.abs(np.imag(k)).max()
    return _integrate_batch(coef, k, growth, lam_scale=unit ** 2, centre=centre)


def _finite_k(k) -> np.ndarray:
    """k as a complex array of its own shape; a non-finite entry raises ValueError."""
    if not np.isfinite(k := np.asarray(k, dtype=complex)).all():
        raise ValueError(f"k must be finite, got {k[~np.isfinite(k)][0]}")
    return k


def characteristic_batch(profile: RefractiveProfile, k, *, n_steps: int | None = None, disk=None):
    """Evaluate d and d' at an array of k on a shared fixed grid.

    ``n_steps`` None is ``grid_steps`` at _PER_RADIAN for max |k|; ``disk`` (c, R), c
    real, builds the table for k in |k - c| <= R (``_table_shape``).  Returns (d_s,
    dp_s, scale_log) with true d = d_s * exp(scale_log); d'/d = dp_s/d_s,
    independent of the scale.  A non-finite k, an ``n_steps`` other than None or a
    positive integer (a bool is not one), a disk (c, R) not finite or with R <= 0, or
    a k outside the table's disk raises ValueError.
    """
    if n_steps is not None and (isinstance(n_steps, bool) or not (
            isinstance(n_steps, (int, np.integer)) and n_steps > 0)):
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    disk = None if disk is None else tuple(map(float, disk))      # hashable, for the cache
    k = _finite_k(k).ravel()
    if k.size == 0:
        return k.copy(), k.copy(), np.zeros(0)
    if n_steps is None:
        n_steps = grid_steps(profile, float(np.abs(k).max()), _PER_RADIAN)
    u, log_scale = _shoot(profile, k, n_steps, disk)
    d_s, dp_s = _characteristic_from(u, _scaled_trig(k))
    return d_s, dp_s, log_scale + np.abs(k.imag)


def scaled_characteristic(profile: RefractiveProfile, k, *, n_steps: int | None = None):
    """D(k) = d(k) * k * exp(-(1+a)|Im k|), the overflow-safe search target."""
    a = travel_time(profile)
    k = np.asarray(k, dtype=complex).ravel()
    d_s, _, scale_log = characteristic_batch(profile, k, n_steps=n_steps)
    return d_s * k * np.exp(scale_log - (1.0 + a) * np.abs(k.imag))


# ---------------------------------------------------------------------------
# single-point path: the engine with a step-doubling accuracy check
# ---------------------------------------------------------------------------


def _checked_shoot(profile: RefractiveProfile, k: np.ndarray, tol: float):
    """``_shoot`` from n = ``grid_steps`` at _PER_RADIAN for max|k| on, doubling n
    until the steps agree.

    The start is the same for every ``tol``: the check alone decides how far
    to refine.  The state on 2n steps is returned once, for every k, it
    differs from the state on n steps by at most ``tol`` times its largest
    entry (both on one scale).  Otherwise n doubles while 2n stays within
    _MAX_STEPS.  A non-finite k raises ValueError.
    """
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError("tol must lie in [1e-13, 1e-6]")
    if k.size == 0:
        return np.zeros((4, 0), dtype=complex), np.zeros(0)
    _finite_k(k)
    n = grid_steps(profile, float(np.abs(k).max()), _PER_RADIAN)
    coarse, coarse_log = _shoot(profile, k, n)
    while 2 * n <= _MAX_STEPS:
        fine, fine_log = _shoot(profile, k, 2 * n)
        common = np.maximum(coarse_log, fine_log)     # scale factors <= 1 cannot overflow
        fine_c = fine * np.exp(fine_log - common)
        err = np.abs(coarse * np.exp(coarse_log - common) - fine_c).max(axis=0)
        if np.all(err <= tol * np.abs(fine_c).max(axis=0)):
            return fine, fine_log
        n, coarse, coarse_log = 2 * n, fine, fine_log
    raise StepUnderflow(f"{profile.name}: step doubling missed tol={tol:g} within "
                        f"{_MAX_STEPS} RK8 steps at max|k|={float(np.abs(k).max()):g}")


def solve_ivp(profile: RefractiveProfile, k, tol: float = 1e-12) -> BoundaryValues:
    """Boundary values y(1,k), y'(1,k) of the shooting solution, y(0) = 0, y'(0) = 1.

    ``k`` is a scalar or a 1-D array; the fields are scalars or arrays to
    match.
    """
    ks = np.asarray(k, dtype=complex)
    u, scale_log = _checked_shoot(profile, ks.ravel(), tol)
    if ks.ndim == 0:
        return BoundaryValues(complex(u[0, 0]), complex(u[1, 0]), float(scale_log[0]))
    return BoundaryValues(y1=u[0], dy1=u[1], scale_log=scale_log)


def characteristic(profile: RefractiveProfile, k: complex,
                   tol: float = 1e-12) -> CharacteristicValue:
    """d(k) and dd/dk at a single (possibly complex) k.

    The removable singularity at k = 0 is handled by series evaluation of
    sin(k)/k and (k cos k - sin k)/k^2.
    """
    k = np.array([complex(k)])
    u, scale_log = _checked_shoot(profile, k, tol)
    d_s, dp_s = _characteristic_from(u[:, 0], (z[0] for z in _scaled_trig(k)))
    return CharacteristicValue(d=d_s, d_prime=dp_s, scale_log=float(scale_log[0]) + abs(k[0].imag))
