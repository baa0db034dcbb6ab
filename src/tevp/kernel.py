"""Transmutation kernel K(x,t) of the Liouville-transformed problem.

K solves a double-integral equation of Volterra type.  With the cumulatives

    Q(x)   = int_0^x q,
    C(x,t) = int_0^t K(x,s) ds,
    D(x)   = int_0^x q(tau) C(tau,tau) dtau,
    A_u(x) = int_u^x q(tau) C(tau, tau-u) dtau,
    B_b(y) = int_{b/2}^y q(tau) C(tau, b-tau) dtau,

the equation collapses (after cancelling telescoping D-terms) to

    2 K(x,t) = [Q(c/2) - Q(u/2)] + [D(c/2) - D(u/2)]
               - A_u(x) - B_u(u) + B_c(x),        u = x-t,  c = x+t.

On the half-step grid delta = a/M, M = 2n, every line this equation reads
passes only through the even nodes (x, t) = (i delta, j delta), i + j even,
where u = 2p delta and c = 2h delta are on-grid.  The solve stores only
those, in characteristic coordinates:

    L[p, i] = K(i delta, (i - 2p) delta),   shape (n+1, M+1),

zero where i <= 2p (t <= 0).  A diagonal u = const is the row p; an x-row
is the column i, read bottom-up (j grows as p falls); an antidiagonal
c = const is the column h of the strided view V[p, h] = L[p, p + h], one
``as_strided`` with row stride M + 2 over a buffer that carries n trailing
zeros.  Entries of V past the end of its line fall where t < 0 or in the padding.

The column sum S of L gives the x-row trapezoid C = delta (2S - K - K_first/2):
an odd node is the average of its t neighbours, so the fine trapezoid equals
the coarse one; K_first is the x-row's first node, zero on even rows.  The
solve drops K_first/2, because a term f(x) added to C cancels: with F = int q f
[F(c/2) - F(u/2)] - [F(x) - F(u)] - [F(u) - F(u/2)] + [F(x) - F(c/2)] = 0,
and the trapezoid sums telescope the same way.  A row sum of W = q C gives A_u
and a view-column sum gives B_c.  Both end at the node, so their end terms
W(node)/2 cancel; D(c/2) ends where B_c starts, so theirs cancel too, and B_u(u)
is the view-column sum at t = 0.  The rest reads W on columns before i only, so
one forward march over the columns solves the discrete Volterra equation (Linz,
SIAM 1985), and one lattice sweep (three cumulative sums, no gathers) checks it:
its largest change of K is the discrete residual.  The traces read the same
lines of q L; the full grid ``KernelGrid.K`` is built only on demand.

Verification (``identity_checks``, run by ``tevp kernel-check``): 2K(x,x) = int_0^x q
against the antiderivative of the Liouville series of q sqrt(eta), and y(1,k), y'(1,k)
from the boundary traces K1 = K_x(a,.), K2 = K_t(a,.) against the shooting solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NoConvergence
from .forward import solve_ivp
from .profiles import LiouvilleData

_SWEEP_TOL = 1e-12       # a verifying sweep may move K by at most this (1 + max|K|)
_CHECK_KS = (1.0, math.pi, 7.3, 15.0)   # real k of the boundary representation check

__all__ = ["KernelGrid", "solve_kernel", "boundary_traces", "representation_boundary",
           "identity_checks"]


def _cumtrapz(v, delta):
    return np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1])))) * delta


def _trapezoid_rows(lines, step):
    """Row-wise trapezoid sums: line sum less half of its first and last sample."""
    return (lines.sum(axis=1) - 0.5 * (lines[:, 0] + lines[:, -1])) * step


def _lattice(n):
    """A zero lattice (n+1, 2n+1) and its antidiagonal view V[p, h] = L[p, p+h]."""
    M1 = 2 * n + 1
    buf = np.zeros((n + 1) * M1 + n)
    V = as_strided(buf, shape=(n + 1, M1), strides=((M1 + 1) * buf.itemsize, buf.itemsize))
    return buf[:(n + 1) * M1].reshape(n + 1, M1), V


@dataclass
class KernelGrid:
    """K on the triangle 0 <= t <= x <= a, storage spacing ``delta`` = a/(2n)."""
    a: float
    delta: float
    x: np.ndarray        # grid nodes, length 2n+1
    q: np.ndarray        # q samples on the grid
    Q: np.ndarray        # cumulative trapezoid of q
    L: np.ndarray        # (n+1, 2n+1) even-node lattice, see the module docstring
    iterations: int      # lattice sweeps run: 1, the check of the column march
    final_delta: float   # sup-norm change of K under that sweep: the equation's residual
    liouville: LiouvilleData   # source of the reference integral Q_ref

    @cached_property
    def K(self) -> np.ndarray:
        """(2n+1, 2n+1) grid K[i, j] = K(x_i, x_j), zero for j > i and j = 0.

        Odd nodes average their t neighbours, which are even nodes.
        """
        M1 = self.x.size
        K = np.zeros((M1, M1))
        p, i = np.indices(self.L.shape)
        on = i >= 2 * p
        K[i[on], (i - 2 * p)[on]] = self.L[on]
        i, j = np.tril_indices(M1, -1)
        odd = ((i + j) % 2 == 1) & (j > 0)
        i, j = i[odd], j[odd]
        K[i, j] = 0.5 * (K[i, j - 1] + K[i, j + 1])
        return K

    @cached_property
    def Q_ref(self) -> np.ndarray:
        """int_0^x q as F(r(x)), with F the antiderivative of the Liouville
        series of q sqrt(eta) in r: exact to series accuracy, from one
        inversion of the optical map at the grid nodes and no q sample."""
        lv = self.liouville
        return lv.q_series.integ(lbnd=0.0)(lv.profile.cumulative_map().inverse(self.x))

    def diagonal_residual(self) -> float:
        """max |2 K(x,x) - int_0^x q| against the series reference ``Q_ref``.

        The discrete scheme satisfies 2K(x,x) = Q(x) (trapezoid cumulative of
        the grid's q samples) to machine precision, so the residual is the
        trapezoid error, O(delta^2): it shrinks by ~4 when the resolution is
        halved.  A kernel solved from a potential other than the series' one
        misses the reference by the difference of their integrals.
        """
        return float(np.max(np.abs(2.0 * self.L[0] - self.Q_ref)))


def _march(q, Qh, delta):
    """L column by column: L[p, i] = F[i - p] - G[p], with F[h] = Q(h delta)/2 + sum_{j<h}
    W[0, j] + the W done on the antidiagonal h, and G[p] = F[p] + the W done on the row p,
    seeded at column 2p + 1, where F[p] is final.  A column is 7 ufuncs into F, G, w, L."""
    n = Qh.size // 2
    L = np.zeros((n + 1, 2 * n + 1))
    F, G, w, w0 = Qh.copy(), np.empty(n + 1), np.empty(n + 1), 0.0   # w0 = sum_{j<i} W[0, j]
    Fr, wr, half = F[::-1], w[::-1], 0.5 * delta * delta * q
    for i in range(1, 2 * n + 1):
        m = (i + 1) // 2                  # nodes 2p < i
        F[i] += w0
        if i % 2:
            G[m - 1] = F[m - 1]
        anti, col, s, g = Fr[2 * n - i:2 * n - i + m], L[:m, i], w[:m], G[:m]   # anti[p] = F[i - p]
        np.subtract(anti, g, out=col)
        np.add.accumulate(col[::-1], out=wr[n + 1 - m:])   # S, the column summed bottom-up
        np.add(s, s, out=s)
        np.subtract(s, col, out=s)
        np.multiply(s, half[i], out=s)    # W = (delta/2) q C, C = delta (2S - K)
        np.add(g, s, out=g)
        np.add(anti, s, out=anti)
        w0 += s[0]
    return L


def solve_kernel(liouville: LiouvilleData, h: float) -> KernelGrid:
    """The transmutation kernel by one column march, checked by one lattice sweep.

    ``h`` is the coarse resolution target; storage runs on the half grid
    delta = h/2 so that midpoint arguments stay on-grid.  An ``h`` that is not
    finite and positive, or a q sample that is not finite, raises ValueError.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h!r}")
    a = liouville.a
    n = max(8, int(round(a / h)))
    M = 2 * n
    delta = a / M
    x = np.linspace(0.0, a, M + 1)
    q = np.asarray(liouville.q(x), dtype=float)
    if not np.isfinite(q).all():
        j = int(np.argmin(np.isfinite(q)))
        raise ValueError(f"q is not finite at x = {x[j]:.17g} (sample {j} of {M + 1}): {q[j]}")
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow fails the check
        Q = _cumtrapz(q, delta)
        L = _march(q, 0.5 * Q, delta)
        # one sweep from K = L: W = (delta/2) q C = delta^2 q (S - K/2), S bottom-up
        (W, WV), (Knew, KnewV) = _lattice(n), _lattice(n)
        np.cumsum(L[::-1], axis=0, out=W[::-1])
        W -= 0.5 * L
        W *= delta * delta * q
        # (B_c(x) + W(node) + Q(c/2) + D(c/2)) / 2 on the antidiagonal c, less its value at c = u
        np.cumsum(WV, axis=0, out=KnewV)
        KnewV += 0.5 * Q + _cumtrapz(W[0], 1.0) - 0.5 * W[0]
        KnewV -= np.diagonal(KnewV).copy()[:, None]
        Knew -= np.cumsum(W, axis=1, out=W)   # (A_u(x) + W(node)) / 2
        t_pos = np.arange(M + 1) > 2 * np.arange(n + 1)[:, None]
        Knew -= L
        residual = float(np.max(np.abs(Knew, out=Knew), where=t_pos, initial=0.0))
        bound = _SWEEP_TOL * (1.0 + float(np.max(np.abs(L))))
    if not (math.isfinite(residual) and residual <= bound):
        raise NoConvergence(f"kernel march residual {residual:.3e} (bound {bound:.3e})")
    return KernelGrid(a=a, delta=delta, x=x, q=q, Q=Q, L=L,
                      iterations=1, final_delta=residual, liouville=liouville)


def boundary_traces(kg: KernelGrid):
    """The traces K1 = K_x(a, t), K2 = K_t(a, t) on the coarse grid.

    Returns (t, K1, K2) with t of spacing 2*delta.  Evaluation nodes are
    those where all integrand arguments are grid-exact, which is t = j*delta
    with M - j even.  With b = M - j = 2 hb, c = M + j, the integrals of q K
    over
    I1: (tau, tau + t - a), tau in [a-t, a]   (diagonal b: row hb of q L),
    I2: (tau, a - t - tau), tau in [(a-t)/2, a-t]   (antidiagonal b),
    I3: (tau, a + t - tau), tau in [(a+t)/2, a]   (antidiagonal c)
    are trapezoid sums: the line sum less half its two end samples.  The
    antidiagonals are the view columns hb and M - hb, whose entries past
    p = hb are zero padding.
    """
    n, M, delta, q = kg.L.shape[0] - 1, kg.x.size - 1, kg.delta, kg.q
    qL, V = _lattice(n)
    np.multiply(q, kg.L, out=qL)
    rows, cols = qL.sum(axis=1), V.sum(axis=0)
    hb = np.arange(n, -1, -1)          # b = M - j, j = 0, 2, ..., M
    I1 = (rows[hb] - 0.5 * (qL[hb, 2 * hb] + qL[hb, M])) * delta
    I2 = (cols[hb] - 0.5 * (qL[0, hb] + qL[hb, 2 * hb])) * delta
    I3 = (cols[M - hb] - 0.5 * (qL[0, M - hb] + qL[hb, M])) * delta
    qa_plus, qa_minus = q[M - hb], q[hb]
    K1 = 0.25 * (qa_plus - qa_minus) + 0.5 * (I1 - I2 + I3)
    K2 = 0.25 * (qa_plus + qa_minus) + 0.5 * (-I1 + I2 + I3)
    return np.arange(0, M + 1, 2) * delta, K1, K2


def representation_boundary(kg: KernelGrid, k):
    """y(1,k), y'(1,k) of the profile of ``kg.liouville``, from the trace
    representation formulas.

    y  = eta0^{-1/4} [ sin(ka)/k - cos(ka)/(2k^2) * int q
                       + int_0^a K2(t) cos(kt)/k^2 dt ],
    y' = eta0^{-1/4} [ cos(ka) + sin(ka)/(2k) * int q
                       + int_0^a K1(t) sin(kt)/k dt ].

    Accuracy is O(h^2) in the kernel resolution; Richardson extrapolation
    over two resolutions removes the leading error term.
    """
    k = np.asarray(k, dtype=complex).ravel()
    a, eta0 = kg.a, float(kg.liouville.profile.eta(0.0))
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


def identity_checks(liouville: LiouvilleData):
    """``tevp kernel-check`` on the profile of ``liouville``: (checks, grids, errors).

    ``grids`` are the kernels at h = a/200 and a/400.  ``checks`` are rows (name,
    residual, bound): the fine grid's diagonal identity within 5e-4 max(1, int |q|),
    and y(1,k), y'(1,k) at k = 1, pi, 7.3, 15 by Richardson (4 fine - coarse)/3 of
    ``representation_boundary`` within 1e-5 of ``solve_ivp`` at tol 1e-13, on the
    IVP's own scale; ``errors`` maps each k to (|y error|, |y' error|).  The reference
    is one ``solve_ivp`` call per k: ``bench/test_bench.py`` pins 2 kernel solves and
    4 adaptive calls for a traced kernel-check.
    """
    coarse, fine = (solve_kernel(liouville, h=liouville.a / m) for m in (200.0, 400.0))
    # the bound's scale int |q|: two digits suffice, so the trapezoid on the kernel grid
    scale = max(1.0, float(_trapezoid_rows(np.abs(fine.q)[None], fine.delta)[0]))
    (y_h, dy_h), (y_h2, dy_h2) = (representation_boundary(kg, _CHECK_KS) for kg in (coarse, fine))
    errors = {}
    for k, y, dy in zip(_CHECK_KS, (4.0 * y_h2 - y_h) / 3.0, (4.0 * dy_h2 - dy_h) / 3.0):
        bv = solve_ivp(liouville.profile, k, tol=1e-13)
        s = np.exp(bv.scale_log)
        errors[k] = abs(y - bv.y1 * s), abs(dy - bv.dy1 * s)
    checks = [("diagonal identity 2K(x,x)=Q(x)", fine.diagonal_residual(), 5e-4 * scale),
              ("boundary representation vs IVP (Richardson)", max(map(max, errors.values())), 1e-5)]
    return checks, (coarse, fine), errors
