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

On a uniform half-step grid of spacing delta = a/(2n), every integrand
argument above lands exactly on a grid node whenever i+j is even (writing
x = i delta, t = j delta); odd-parity nodes are filled by averaging in t.
A_u runs along matrix diagonals and B_b along antidiagonals of q*C, so one
sweep is a handful of O(n^2) vector operations.

Built-in identities used for verification: 2K(x,x) = Q(x), K(x,0) = 0, and
the boundary traces K1 = K_x(a,.), K2 = K_t(a,.) satisfy
K1(a) + K2(a) = q(a)/2.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from .errors import NoConvergence
from .profiles import LiouvilleData

__all__ = [
    "KernelGrid",
    "solve_kernel",
    "boundary_traces",
    "representation_boundary",
    "write_kernel_csv",
]


def _cumtrapz(v, delta):
    return np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1])))) * delta


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
    Q_ref: np.ndarray | None = None   # high-accuracy reference for int_0^x q

    def diagonal_residual(self) -> float:
        """max |2 K(x,x) - int_0^x q| against the fine reference integral.

        The discrete scheme satisfies 2K(x,x) = Q(x) (trapezoid cumulative)
        to machine precision, so the residual against the true integral is
        the trapezoid error, O(delta^2) — it shrinks by ~4 when the
        resolution is halved.
        """
        ref = self.Q if self.Q_ref is None else self.Q_ref
        return float(np.max(np.abs(2.0 * np.diagonal(self.K) - ref)))

    def discrete_diagonal_defect(self) -> float:
        """max |2 K(x,x) - Q(x)| with the grid's own cumulative (machine-0)."""
        return float(np.max(np.abs(2.0 * np.diagonal(self.K) - self.Q)))

    def at(self, x: float, t: float) -> float:
        """Bilinear interpolation of K at (x, t), 0 <= t <= x <= a."""
        if not (0.0 <= t <= x <= self.a + 1e-12):
            raise ValueError(f"point ({x}, {t}) outside the kernel triangle")
        fi, fj = x / self.delta, t / self.delta
        i0 = min(int(fi), self.K.shape[0] - 2)
        j0 = min(int(fj), self.K.shape[0] - 2)
        si, sj = fi - i0, fj - j0
        Km = self.K
        return float((1 - si) * (1 - sj) * Km[i0, j0] + si * (1 - sj) * Km[i0 + 1, j0]
                     + (1 - si) * sj * Km[i0, j0 + 1] + si * sj * Km[i0 + 1, j0 + 1])


def solve_kernel(liouville: LiouvilleData, h: float | None = None,
                 tol: float = 1e-12, max_iter: int = 200) -> KernelGrid:
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
    # reference cumulative on an 8x finer grid (error ~ delta^2/64)
    x_fine = np.linspace(0.0, a, 8 * M + 1)
    Q_ref = _cumtrapz(np.asarray(liouville.q(x_fine), dtype=float),
                      delta / 8.0)[::8]

    idx = np.arange(M + 1)
    jj, ii = np.meshgrid(idx, idx)
    lower = jj <= ii                      # storage triangle
    even = ((ii + jj) % 2 == 0) & lower   # nodes where the update is exact

    # zeroth iterate: K0(x,t) = [Q((x+t)/2) - Q((x-t)/2)] / 2
    K = np.zeros((M + 1, M + 1))
    K[even] = 0.5 * (Q[(ii + jj)[even] // 2] - Q[(ii - jj)[even] // 2])
    _fill_odd(K, M)

    half = M // 2 + 2
    Bpad = np.zeros((M + 1, half))        # Bpad[c//2, l - c//2]
    Apad = np.zeros((M + 1, M + 1))       # Apad[p, l - p]

    last = math.inf
    for it in range(1, max_iter + 1):
        C = np.zeros_like(K)
        C[:, 1:] = np.cumsum(0.5 * (K[:, 1:] + K[:, :-1]), axis=1) * delta
        C[~lower] = 0.0
        W = q[:, None] * C

        wdiag = np.diagonal(W)
        Dv = _cumtrapz(wdiag, delta)

        for p in range(M + 1):
            dg = np.diagonal(W, offset=-p)          # W[p+s, s]
            Apad[p, :dg.size] = _cumtrapz(dg, delta)
        for c in range(0, 2 * M + 1, 2):
            ls = np.arange(c // 2, min(c, M) + 1)
            Bpad[c // 2, :ls.size] = _cumtrapz(W[ls, c - ls], delta)

        Knew = np.zeros_like(K)
        for i in range(M + 1):
            js = np.arange(i % 2, i + 1, 2)
            if js.size == 0:
                continue
            p = i - js                               # u index (even parity)
            c = i + js
            val = (Q[c // 2] - Q[p // 2]) + (Dv[c // 2] - Dv[p // 2]) \
                - Apad[p, i - p] - Bpad[p // 2, p - p // 2] \
                + Bpad[c // 2, i - c // 2]
            Knew[i, js] = 0.5 * val
        _fill_odd(Knew, M)

        diff = float(np.max(np.abs(Knew - K)))
        K = Knew
        if diff <= tol * (1.0 + float(np.max(np.abs(K)))):
            return KernelGrid(a=a, delta=delta, x=x, q=q, Q=Q, K=K,
                              iterations=it, final_delta=diff, Q_ref=Q_ref)
        if it > 10 and diff > 10.0 * last:
            break
        last = diff
    raise NoConvergence(
        f"kernel Picard iteration stalled after {it} sweeps (delta={diff:.3e})")


def _fill_odd(K, M):
    """Average odd-parity nodes in t; enforce K(x, 0) = 0."""
    for i in range(M + 1):
        js = np.arange(1 + i % 2, i, 2)       # odd-parity interior j
        if js.size:
            K[i, js] = 0.5 * (K[i, js - 1] + K[i, js + 1])
    K[:, 0] = 0.0


def boundary_traces(kg: KernelGrid):
    """The traces K1 = K_x(a, t), K2 = K_t(a, t) on the coarse grid.

    Returns (t, K1, K2) with t of spacing 2*delta.  Evaluation nodes are
    those where all integrand arguments are grid-exact, which is t = j*delta
    with M - j even.
    """
    M = kg.K.shape[0] - 1
    delta, q, K = kg.delta, kg.q, kg.K
    js = np.arange(M % 2, M + 1, 2)
    t = js * delta
    K1 = np.empty(js.size)
    K2 = np.empty(js.size)
    for out_i, j in enumerate(js):
        qa_plus = q[(M + j) // 2]
        qa_minus = q[(M - j) // 2]
        # I1 = int_{a-t}^a q K(tau, tau + t - a)
        ls = np.arange(M - j, M + 1)
        I1 = trapezoid(q[ls] * K[ls, ls - (M - j)], dx=delta)
        # I2 = int_{(a-t)/2}^{a-t} q K(tau, a - t - tau)
        b = M - j
        ls = np.arange(b // 2, b + 1)
        I2 = trapezoid(q[ls] * K[ls, b - ls], dx=delta)
        # I3 = int_{(a+t)/2}^{a} q K(tau, a + t - tau)
        c = M + j
        ls = np.arange(c // 2, M + 1)
        I3 = trapezoid(q[ls] * K[ls, c - ls], dx=delta)
        K1[out_i] = 0.25 * (qa_plus - qa_minus) + 0.5 * (I1 - I2 + I3)
        K2[out_i] = 0.25 * (qa_plus + qa_minus) + 0.5 * (-I1 + I2 + I3)
    return t, K1, K2


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
    i2 = trapezoid(K2[None, :] * np.cos(kt), t, axis=1)
    i1 = trapezoid(K1[None, :] * np.sin(kt), t, axis=1)
    pref = eta0 ** (-0.25)
    y1 = pref * (np.sin(k * a) / k - np.cos(k * a) / (2.0 * k * k) * intq
                 + i2 / (k * k))
    dy1 = pref * (np.cos(k * a) + np.sin(k * a) / (2.0 * k) * intq + i1 / k)
    return y1, dy1


def write_kernel_csv(path, kg: KernelGrid, stride: int = 1):
    """Dump the kernel triangle as rows x, t, K."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "t", "K"])
        M = kg.K.shape[0] - 1
        for i in range(0, M + 1, stride):
            for j in range(0, i + 1, stride):
                w.writerow([f"{kg.x[i]:.10e}", f"{kg.x[j]:.10e}",
                            f"{kg.K[i, j]:.12e}"])
