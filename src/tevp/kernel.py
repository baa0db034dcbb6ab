"""Transmutation kernel K(x,t) of the Liouville-transformed problem.

K solves a self-referential double-integral equation whose fixed point is
reached by Picard iteration.  With the cumulatives

    Q(x)   = int_0^x q,
    C(x,t) = int_0^t K(x,s) ds,
    D(x)   = int_0^x q(tau) C(tau,tau) dtau,
    A_u(x) = int_u^x q(tau) C(tau, tau-u) dtau,
    B_b(y) = int_{b/2}^y q(tau) C(tau, b-tau) dtau,

the equation collapses (after cancelling telescoping D-terms) to

    2 K(x,t) = [Q(c/2) - Q(u/2)] + [D(c/2) - D(u/2)]
               - A_u(x) - B_u(u) + B_c(x),        u = x-t,  c = x+t.

On the half-step grid delta = a/M, M = 2n, every integrand argument above is
a grid node when i+j is even (x = i delta, t = j delta).  Such a node is
(i, j) = (hp + hc, hc - hp) with u = 2hp delta, c = 2hc delta; it reads A_u on
the diagonal W[2hp + s, s] and B_c on the antidiagonal W[hc + m, hc - m] of
W = q*C.  One int32 index plan per M gathers all these lines into two padded
arrays, so a sweep is a row-wise cumulative trapezoid of each, one gather and
one scatter.  Odd nodes average their t neighbours, which are even, so the
parity fill is exact in one assignment.  The traces sum the same lines of q*K.

Verification (``tevp kernel-check``): 2K(x,x) = int_0^x q against a finer
reference integral, and y(1,k), y'(1,k) from the boundary traces
K1 = K_x(a,.), K2 = K_t(a,.) against the shooting solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NoConvergence
from .profiles import LiouvilleData

_ROW_BLOCK = 64          # rows per block of the lower-triangle cumulative trapezoid
_MAX_SWEEPS = 200        # Picard sweeps before the kernel iteration gives up

__all__ = [
    "KernelGrid",
    "solve_kernel",
    "boundary_traces",
    "representation_boundary",
    "write_kernel_csv",
]


def _cumtrapz(v, delta):
    return np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1])))) * delta


def _trapezoid_rows(lines, step, last=-1):
    """Row-wise trapezoid sums: line sum less half of sample 0 and sample ``last``."""
    ends = lines[:, 0] + lines[np.arange(len(lines)), last]
    return (lines.sum(axis=1) - 0.5 * ends) * step


def _cumtrapz_rows(G, out, delta):
    """Row-wise cumulative trapezoid of G into ``out`` (same bits as _cumtrapz)."""
    tail = out[:, 1:]
    np.add(G[:, 1:], G[:, :-1], out=tail)
    tail *= 0.5
    np.cumsum(tail, axis=1, out=tail)
    out *= delta
    out[:, 0] = 0.0


def _q_cumtrapz_lower(K, q, W, delta):
    """W = q*C with C the row-wise cumulative trapezoid of K, on the lower triangle.

    Rows go in blocks of _ROW_BLOCK, each stopping at its last diagonal column;
    entries right of that are left as they are.  Row sums run in the same
    order as over whole rows, so the triangle has the same bits.
    """
    for i0 in range(0, len(K), _ROW_BLOCK):
        rows, cols = slice(i0, i0 + _ROW_BLOCK), slice(0, i0 + _ROW_BLOCK)
        _cumtrapz_rows(K[rows, cols], W[rows, cols], delta)
        W[rows, cols] *= q[rows, None]


@dataclass
class KernelGrid:
    """K on the triangle 0 <= t <= x <= a, storage spacing ``delta`` = a/(2n)."""
    a: float
    delta: float
    x: np.ndarray        # grid nodes, length 2n+1
    q: np.ndarray        # q samples on the grid
    Q: np.ndarray        # cumulative trapezoid of q
    K: np.ndarray        # (2n+1, 2n+1), entries with j > i are zero
    iterations: int
    final_delta: float   # last sup-norm Picard update
    liouville: LiouvilleData | None = None   # source of the fine reference

    @cached_property
    def Q_ref(self) -> np.ndarray:
        """int_0^x q, trapezoid on an 8x finer grid (error ~ delta^2/64)."""
        if self.liouville is None:
            return self.Q
        x_fine = np.linspace(0.0, self.a, 8 * self.x.size - 7)
        return _cumtrapz(np.asarray(self.liouville.q(x_fine), dtype=float), self.delta / 8.0)[::8]

    def diagonal_residual(self) -> float:
        """max |2 K(x,x) - int_0^x q| against the fine reference integral.

        The discrete scheme satisfies 2K(x,x) = Q(x) (trapezoid cumulative)
        to machine precision, so the residual against the true integral is
        the trapezoid error, O(delta^2) — it shrinks by ~4 when the
        resolution is halved.
        """
        return float(np.max(np.abs(2.0 * np.diagonal(self.K) - self.Q_ref)))


class _SweepPlan:
    """Row-major int32 flat indices for grid size M (see the module docstring).

    ``diag[r, s]`` is W[2r + s, s], ``anti[r, m]`` is W[r + m, r - m]; past the
    end of a line both point at W[0, M], always 0 as row 0 and the upper
    triangle of K are.  The even nodes index K (``even``), A[hp, j]
    (``even_a``) and B[hc, hp] (``even_b``).
    """

    def __init__(self, M: int):
        n, M1 = M // 2, M + 1
        dtype = np.int32 if M1 * M1 < 2**31 else np.int64  # flat indices must not wrap
        r = np.arange(n + 1, dtype=dtype)[:, None]         # line number
        s = np.arange(M1, dtype=dtype)                     # position on the line
        self.diag = np.where(s <= M - 2 * r, (2 * r + s) * M1 + s, M)
        r, m = s[:, None], s[:n + 1]
        self.anti = np.where(m <= np.minimum(r, M - r), (r + m) * M1 + r - m, M)
        # row i, column j = i % 2 + 2k: (i, j) has even parity, (i, j + 1) odd
        i = np.broadcast_to(r, (M1, n + 1))
        j = i % 2 + 2 * m
        even, odd = j <= i, j + 1 < i
        self.odd = i[odd] * M1 + j[odd] + 1
        i, j = i[even], j[even]
        self.hp, self.hc = (i - j) // 2, (i + j) // 2
        self.even, self.even_a = i * M1 + j, self.hp * M1 + j
        self.even_b = self.hc * (n + 1) + self.hp


_sweep_plan = lru_cache(maxsize=2)(_SweepPlan)     # kernel-check uses M = 400, 800


def _fill_odd(K, plan):
    """Average odd-parity nodes in t (their neighbours are even); K(x, 0) = 0."""
    Kf = K.ravel()
    Kf[plan.odd] = 0.5 * (Kf[plan.odd - 1] + Kf[plan.odd + 1])
    K[:, 0] = 0.0


def solve_kernel(liouville: LiouvilleData, h: float | None = None,
                 tol: float = 1e-12) -> KernelGrid:
    """Picard iteration for the transmutation kernel.

    ``h`` is the coarse resolution target (default a/400); storage runs on
    the half grid delta = h/2 so that midpoint arguments stay on-grid.
    """
    a = liouville.a
    if h is None:
        h = a / 400.0
    n = max(8, int(round(a / h)))
    M = 2 * n
    delta = a / M
    x = np.linspace(0.0, a, M + 1)
    q = np.asarray(liouville.q(x), dtype=float)
    Q = _cumtrapz(q, delta)
    plan = _sweep_plan(M)

    # zeroth iterate: K0(x,t) = [Q((x+t)/2) - Q((x-t)/2)] / 2
    Q0 = Q[plan.hc] - Q[plan.hp]
    K, Knew, W = (np.zeros((M + 1, M + 1)) for _ in range(3))   # W = q*C
    K.ravel()[plan.even] = 0.5 * Q0
    _fill_odd(K, plan)
    Apad = np.empty(plan.diag.shape)      # Apad[hp, j] = A_u(x), u = 2 hp delta
    Bpad = np.empty(plan.anti.shape)      # Bpad[hc, m] = B_c at x = (hc+m) delta

    last = math.inf
    for it in range(1, _MAX_SWEEPS + 1):
        _q_cumtrapz_lower(K, q, W, delta)
        Dv = _cumtrapz(np.diagonal(W), delta)
        _cumtrapz_rows(W.ravel()[plan.diag], Apad, delta)
        _cumtrapz_rows(W.ravel()[plan.anti], Bpad, delta)
        val = Q0 + (Dv[plan.hc] - Dv[plan.hp]) - Apad.ravel()[plan.even_a] \
            - np.diagonal(Bpad)[plan.hp] + Bpad.ravel()[plan.even_b]
        Knew.ravel()[plan.even] = 0.5 * val
        _fill_odd(Knew, plan)
        np.subtract(Knew, K, out=W)       # W is scratch until the next sweep
        diff = float(np.max(np.abs(W, out=W)))
        K, Knew = Knew, K
        if diff <= tol * (1.0 + max(float(K.max()), -float(K.min()))):
            return KernelGrid(a=a, delta=delta, x=x, q=q, Q=Q, K=K,
                              iterations=it, final_delta=diff, liouville=liouville)
        if it > 10 and diff > 10.0 * last:
            break
        last = diff
    raise NoConvergence(
        f"kernel Picard iteration stalled after {it} sweeps (delta={diff:.3e})")


def boundary_traces(kg: KernelGrid):
    """The traces K1 = K_x(a, t), K2 = K_t(a, t) on the coarse grid.

    Returns (t, K1, K2) with t of spacing 2*delta.  Evaluation nodes are
    those where all integrand arguments are grid-exact, which is t = j*delta
    with M - j even.  With b = M - j, c = M + j, the integrals of q K over
    I1: (tau, tau + t - a), tau in [a-t, a]   (diagonal b),
    I2: (tau, a - t - tau), tau in [(a-t)/2, a-t]   (antidiagonal b),
    I3: (tau, a + t - tau), tau in [(a+t)/2, a]   (antidiagonal c)
    are trapezoid sums: the line sum less half its two end samples.
    """
    M, delta, q = kg.K.shape[0] - 1, kg.delta, kg.q
    n, plan = M // 2, _sweep_plan(M)
    qK = (q[:, None] * kg.K).ravel()
    hb = np.arange(n, -1, -1)          # b = M - j, j = 0, 2, ..., M
    I1 = _trapezoid_rows(qK[plan.diag[hb]], delta, 2 * (n - hb))
    I2 = _trapezoid_rows(qK[plan.anti[hb]], delta, hb)
    I3 = _trapezoid_rows(qK[plan.anti[M - hb]], delta, hb)
    qa_plus, qa_minus = q[M - hb], q[hb]
    K1 = 0.25 * (qa_plus - qa_minus) + 0.5 * (I1 - I2 + I3)
    K2 = 0.25 * (qa_plus + qa_minus) + 0.5 * (-I1 + I2 + I3)
    return np.arange(0, M + 1, 2) * delta, K1, K2


def representation_boundary(liouville: LiouvilleData, kg: KernelGrid, k):
    """y(1,k), y'(1,k) from the trace representation formulas.

    y  = eta0^{-1/4} [ sin(ka)/k - cos(ka)/(2k^2) * int q
                       + int_0^a K2(t) cos(kt)/k^2 dt ],
    y' = eta0^{-1/4} [ cos(ka) + sin(ka)/(2k) * int q
                       + int_0^a K1(t) sin(kt)/k dt ].

    Accuracy is O(h^2) in the kernel resolution; Richardson extrapolation
    over two resolutions removes the leading error term.
    """
    k = np.asarray(k, dtype=complex).ravel()
    a = liouville.a
    eta0 = float(liouville.profile.eta(0.0))
    t, K1, K2 = boundary_traces(kg)
    intq = kg.Q[-1]
    kt = np.outer(k, t)
    i2 = _trapezoid_rows(K2 * np.cos(kt), 2.0 * kg.delta)
    i1 = _trapezoid_rows(K1 * np.sin(kt), 2.0 * kg.delta)
    pref = eta0 ** (-0.25)
    y1 = pref * (np.sin(k * a) / k - np.cos(k * a) / (2.0 * k * k) * intq
                 + i2 / (k * k))
    dy1 = pref * (np.cos(k * a) + np.sin(k * a) / (2.0 * k) * intq + i1 / k)
    return y1, dy1


def write_kernel_csv(path, kg: KernelGrid, stride: int = 1):
    """Dump the kernel triangle as rows x, t, K."""
    idx = np.arange(0, kg.K.shape[0], stride)
    r, c = np.tril_indices(idx.size)
    i, j = idx[r], idx[c]
    np.savetxt(path, np.column_stack((kg.x[i], kg.x[j], kg.K[i, j])),
               fmt=("%.10e", "%.10e", "%.12e"), delimiter=",", newline="\r\n",
               header="x,t,K", comments="")
