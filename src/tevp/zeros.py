"""Zero localization for the characteristic function d(k).

Strategy: argument-principle winding counts over rectangle contours,
subdivision until every nonempty cell, the outer one included, holds at
most _MMAX zeros, at any width, then refinement, in a loop: a cell that
refinement cannot certify is split again.  Refinement reads a cell's
distinct zeros and multiplicities off the Hankel pencil of the moments its
count gave (_pencil) and verifies each on a circle and, if simple, by a
Newton-step certificate (_refine_clusters); a cell is accepted only if all
its zeros are, so the pencil can cost evaluations but not give a wrong
zero.  One repair: d_h may split a multiple zero that a contour or split
line runs through, so a search whose count or split fails, or that is handed
back a cell narrower than _SPLIT_FLOOR, starts again on the next padded rect
(_padded_rects), whose split lines have moved.

All evaluations of one search go through its batching service, on one RK8
grid: _PER_RADIAN steps per radian of phase at the largest |k| any contour of
the search can reach.  Every count, moment and certificate is therefore
exact for one analytic function d_h, and every cached segment is valid for
every later contour.  Contour pieces are rows of numpy arrays (owner rect,
start, end), at most _SEG_LEN (6) long at first; a piece whose 12-node rule
disagrees with its two halves is bisected at 0.5 (a + b), so the halves of
one edge are bit-equal in any round and found in the cache.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ContourTooClose, DegenerateCharacteristic, NewtonStall
from .forward import characteristic_batch, grid_steps
from .profiles import RefractiveProfile, travel_time

__all__ = [
    "Certificate",
    "SpectralZero",
    "SearchReport",
    "count_zeros",
    "find_zeros",
    "report_to_json",
    "read_zeros_csv",
    "write_zeros_csv",
]

DEGENERACY_FLOOR = 1e-9      # max |D| on a contour below which d is treated as == 0
_REAL_CLASS_TOL = 1e-9       # |Im k| <= tol*(1+|Re k|) classifies a zero as real
_MMAX = 4                    # cells of 1 .. _MMAX zeros go to refinement, larger ones are split
_RANK_TOL = 1e-8             # singular values of H0 below this share of the largest are 0
_SPLIT_FLOOR = 2e-3          # clusters cohesive at this radius count as one multiple zero
_GL_NODES = np.polynomial.legendre.leggauss(12)
_SEG_LEN = 6.0               # longest first-round segment of a contour edge
_PER_RADIAN = 3.5            # grid steps per radian of phase at a search's largest |k|
_SEG_TOL = 1e-3              # a segment rule must match its two halves' sum to this
_MAX_ROUNDS = 18             # segment-bisection rounds before a contour fails
_STEP_CERT = 1e-10           # a simple zero needs |d/d'| <= _STEP_CERT (1 + |k|)
_CIRCLE_TOL = 1e-6           # a simple zero's circle must wind within this of 1
_MAX_SPLITS = 128            # segments one contour may split in one round
_PHASES = ("count", "subdivide", "refine")
_RETRIES = ("inflate", "resplit")
_TRIVIAL_CLEARANCE = 1e-2    # least distance from k = 0 of a search rect's corner (x0, y0)
_PADS = (1e-2, 2e-2, 4e-2, 8e-2, 0.16)   # outward moves of a padded rect's right, top edges


@dataclass(frozen=True)
class Certificate:
    """The numbers that accepted a zero: its verification circle's radius,
    that circle's winding defect |w - n|, the Newton step |d/d'| at the zero
    (None for a multiple zero, which no step certifies), and the least |D| at
    the circle's nodes."""
    radius: float
    defect: float
    step: float | None
    min_abs_d: float


@dataclass
class SpectralZero:
    """A zero of d(k), canonical representative in the closed first quadrant."""
    k: complex
    multiplicity: int
    cls: str                 # "real" | "nonreal"
    residual: float          # |D(k)| at the refined point
    certificate: Certificate | None = None   # None for a zero read back from a table

    def symmetric_copies(self):
        """The distinct members of the orbit {k, -k, conj k, -conj k}."""
        k = self.k
        copies = {k, -k, k.conjugate(), -k.conjugate()}
        return sorted(copies, key=lambda z: (z.real, z.imag))


@dataclass
class SearchReport:
    """Zeros of one search and its ``stats``: ``evals`` (points propagated),
    ``phase_evals`` (their split over count / subdivide / refine; refine is the
    verification circles and the residual and certificate evaluation at their
    centroids: 9 per simple zero), ``batches`` (engine calls), ``ksteps``
    (points times grid steps), ``phase_ksteps`` (their split over the same
    phases), ``segments_reused`` (segment rules the cache, or the same batch,
    already held), ``retries`` (``inflate``: rects given up for the next padded
    one, because a contour or a split failed or a cell stalled; ``resplit``:
    cells handed back to the subdivision because their pencil gave no usable
    zeros or a zero failed its circle or certificate), ``clusters`` (cells
    resolved from their moments on every rect tried, handed-back ones
    included), ``duplicates_removed`` and ``noteworthy_multiple_nonreal``.
    Each zero carries the ``certificate`` that accepted it.  ``timings``: wall
    seconds per phase, out of ``stats`` as they vary by run."""
    rect: tuple
    zeros: list
    total_count_by_argument_principle: int
    stats: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# batched evaluation service
# ---------------------------------------------------------------------------


class _Service:
    """Batches d'/d evaluations for one search and caches its contour segments.

    Every evaluation runs on one grid of ``n_steps`` steps uniform in optical
    depth, each at most 1/_PER_RADIAN rad at the largest |k| a contour of the
    search on ``rect`` can reach: a corner of its widest padded rect plus a
    verification circle's radius.  ``segments`` maps a segment (a, b), a before
    b by (re, im), to its row of ``nodes`` (12 Gauss-Legendre nodes), ``wld``
    (d'/d there times the weights, so the row sums to the integral from a to b)
    and ``peak`` (max |D|); cells take their moments from them."""

    def __init__(self, profile: RefractiveProfile, rect):
        x0, x1, y0, y1 = _padded_rects(rect)[-1]
        reach = math.hypot(max(abs(x0), abs(x1)), max(abs(y0), abs(y1)))
        # a verification circle reaches one radius past its centroid; the pad is twice that
        self.n_steps = grid_steps(profile, reach + 2.0 * max(_SPLIT_FLOOR, 2e-4 * reach),
                                  _PER_RADIAN)
        self.profile = profile
        self.a = travel_time(profile)
        self.segments, self.peak = {}, np.zeros(0)
        self.nodes = self.wld = np.zeros((0, _GL_NODES[0].size), dtype=complex)
        self.phase, self._since = "count", time.perf_counter()
        self.timings = dict.fromkeys(_PHASES, 0.0)
        self.stats = {"batches": 0, "evals": 0, "ksteps": 0, "segments_reused": 0,
                      "phase_evals": dict.fromkeys(_PHASES, 0),
                      "phase_ksteps": dict.fromkeys(_PHASES, 0),
                      "retries": dict.fromkeys(_RETRIES, 0), "clusters": 0}

    def enter(self, phase):
        """Switch to ``phase``, charging the wall time since the last switch to the old one."""
        now = time.perf_counter()
        self.timings[self.phase] += now - self._since
        self.phase, self._since = phase, now

    def eval(self, ks):
        """Return (logderiv, absD) at the given complex points."""
        ks = np.asarray(ks, dtype=complex).ravel()
        if ks.size == 0:
            return np.zeros(0, complex), np.zeros(0)
        d_s, dp_s, scale_log = characteristic_batch(self.profile, ks, n_steps=self.n_steps)
        self.stats["batches"] += 1
        self.stats["evals"] += ks.size
        self.stats["ksteps"] += ks.size * self.n_steps
        self.stats["phase_evals"][self.phase] += ks.size
        self.stats["phase_ksteps"][self.phase] += ks.size * self.n_steps
        with np.errstate(divide="ignore", invalid="ignore"):
            ld = dp_s / d_s
        absD = np.abs(d_s * ks) * np.exp(scale_log - (1.0 + self.a) * np.abs(ks.imag))
        return ld, absD

    def rules(self, a, b):
        """Each piece a -> b's (arrays) rows of nodes and of weighted d'/d, oriented
        a -> b, and its max |D|.  Only pieces missing from ``segments`` are
        evaluated, in one batch; a piece given twice, or both ways, once."""
        forward = (a.real < b.real) | ((a.real == b.real) & (a.imag < b.imag))
        lo, hi = np.where(forward, a, b), np.where(forward, b, a)
        rows, start = self.segments, len(self.segments)
        row = [rows.setdefault(key, len(rows)) for key in zip(lo.tolist(), hi.tolist())]
        self.stats["segments_reused"] += len(row) - (len(rows) - start)
        if len(rows) > start:
            lo, hi = np.array(list(rows)[start:]).T
            c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
            x_gl, w_gl = _GL_NODES
            nodes = c[:, None] + h[:, None] * x_gl
            ld, absD = (v.reshape(nodes.shape) for v in self.eval(nodes.ravel()))
            self.nodes = np.concatenate([self.nodes, nodes])
            with np.errstate(invalid="ignore"):
                self.wld = np.concatenate([self.wld, ld * (w_gl * h[:, None])])
            self.peak = np.concatenate([self.peak, absD.max(1)])
        sign = np.where(forward, 1.0, -1.0)
        return self.nodes[row], self.wld[row] * sign[:, None], self.peak[row]


# ---------------------------------------------------------------------------
# rectangle winding numbers (adaptive Gauss-Legendre, many rects at once)
# ---------------------------------------------------------------------------


def _bisect(owner, a, b, sel):
    """Pieces (owner, a, b) with each selected piece replaced, in place, by its halves at
    0.5 (a + b): the one bisection rule, so halves of one edge are bit-equal in any round."""
    n = 1 + sel
    owner, a, b = owner.repeat(n), a.repeat(n), b.repeat(n)
    left = sel.repeat(n).nonzero()[0][::2]
    a[left + 1] = b[left] = 0.5 * (a[left] + b[left])
    return owner, a, b


def _contour_pieces(rects):
    """The first-round pieces (owner, a, b) of ``_winding_many``: every rect's
    four edges, counter-clockwise from (x0, y0), with all pieces of an edge
    bisected while its first piece exceeds _SEG_LEN.

    At _SEG_LEN = 6 a smooth edge is accepted in one round from few pieces.  A
    half edge of a split cell bisects into bit-equal pieces of the whole edge,
    so a child cell finds its parent's segments in the cache.
    """
    xy = np.array(rects, dtype=float).reshape(-1, 4)
    # the corners (x0, y0), (x1, y0), (x1, y1), (x0, y1), and the next corner of each
    a = np.take(xy, [0, 2, 1, 2, 1, 3, 0, 3], axis=1).view(complex).ravel()
    b = np.take(xy, [1, 2, 1, 3, 0, 3, 0, 2], axis=1).view(complex).ravel()
    edge = edges = np.arange(a.size)
    while (long := np.abs(b - a)[np.searchsorted(edge, edges)] > _SEG_LEN).any():
        edge, a, b = _bisect(edge, a, b, long[edge])
    return edge // 4, a, b


def _winding_many(service, rects):
    """Winding numbers and moments of d'/d over rectangle boundaries.

    A segment is accepted when its 12-node rule agrees with the sum over its
    two halves to _SEG_TOL, and otherwise replaced by the halves, whose rules
    are then already cached.  Returns a list of (count:int|None, max_absD,
    moments): moments[p] = (1/2 pi i) integral of ((k - c)/r)^p d'/d, p <
    2 _MMAX, about the rect's centre c and scaled by its half-width r, as raw
    k^p moments lose every digit at |k| = 150; moments[0] is the winding
    number.  Count None marks a non-integer defect or unconverged segment.
    """
    idx, z0, z1 = _contour_pieces(rects)
    m = len(rects)
    x0, x1, y0, y1 = np.array(rects, dtype=float).reshape(-1, 4).T
    centre, half = 0.5 * (x0 + x1) + 0.5j * (y0 + y1), 0.5 * np.maximum(x1 - x0, y1 - y0)
    moments = np.zeros((m, 2 * _MMAX), dtype=complex)
    max_absD = np.zeros(m)
    failed = np.zeros(m, dtype=bool)

    for depth in range(_MAX_ROUNDS):
        if not idx.size:
            break
        # every piece, then its left and its right half, split as _bisect splits it
        mid = 0.5 * (z0 + z1)
        nodes, wld, mx = service.rules(np.concatenate([z0, z0, mid]),
                                       np.concatenate([z1, mid, z1]))
        ridx = np.tile(idx, 3)
        np.maximum.at(max_absD, ridx, mx)
        with np.errstate(invalid="ignore"):
            coarse, left, right = wld.sum(1).reshape(3, -1)
            gap = np.abs(coarse - (left + right))
        # a node hit a zero of d dead-on: this contour is unusable
        failed[idx[~np.isfinite(gap)]] = True
        done = gap <= _SEG_TOL
        # the accepted pieces' halves, about their rect's centre and scaled by its half-width
        halves = np.concatenate([np.zeros_like(done), done, done])
        owner = ridx[halves]
        u = (nodes[halves] - centre[owner, None]) / half[owner, None]
        term, parts = wld[halves], []
        for _p in range(2 * _MMAX):
            parts.append(term.sum(1))
            term = term * u
        np.add.at(moments, owner, np.array(parts).T)
        split = np.isfinite(gap) & ~done
        if depth == _MAX_ROUNDS - 1:
            failed[idx[split]] = True
        failed |= np.bincount(idx[split], minlength=m) > _MAX_SPLITS
        # the split pieces' halves, in place
        keep = split & ~failed[idx]
        idx, z0, z1 = _bisect(idx[keep], z0[keep], z1[keep], keep[keep])

    moments /= 2j * np.pi
    n = np.round(moments[:, 0].real).astype(int)
    ok = ~failed & (np.abs(moments[:, 0] - n) <= 0.25) & (n >= 0)
    return [(int(c) if good else None, mx, s) for c, good, mx, s in zip(n, ok, max_absD, moments)]


# ---------------------------------------------------------------------------
# public counting
# ---------------------------------------------------------------------------


def _padded_rects(rect):
    """``rect``, then ``rect`` with its right and top edges moved out by each of
    _PADS and its left and bottom edges by half as much, at most halfway to an
    axis they are off (never across it to k = 0): the centre, and with it
    every split line, moves too."""
    x0, x1, y0, y1 = rect
    return [rect] + [(x0 - 0.5 * (min(pad, x0) if x0 > 0 else pad), x1 + pad,
                      y0 - 0.5 * (min(pad, y0) if y0 > 0 else pad), y1 + pad)
                     for pad in _PADS]


def _on_padded_rects(service, rect, search):
    """``search(service, r)`` on the first r of ``_padded_rects(rect)`` where it
    raises neither ContourTooClose nor NewtonStall; each rect passed over is an
    ``inflate`` retry.  Raises the last error if every rect fails."""
    for padded in _padded_rects(rect):
        try:
            return search(service, padded)
        except (ContourTooClose, NewtonStall) as err:
            error = err
            service.stats["retries"]["inflate"] += 1
    raise error


def _count(service, rect):
    """``rect`` as a counted ``_Cell``; ContourTooClose if its contour fails."""
    (n, mx, moments), = _winding_many(service, [rect])
    if mx < DEGENERACY_FLOOR:
        raise DegenerateCharacteristic(f"max |D| on contour {mx:.3e} below the degeneracy floor")
    if n is None:
        raise ContourTooClose(f"winding defect > 0.25 for rect {rect}")
    return _Cell(rect, n, moments)


def count_zeros(profile: RefractiveProfile, rect) -> int:
    """Number of zeros of d (with multiplicity) inside the rectangle.

    ``rect`` is (x0, x1, y0, y1) anywhere in the plane, x1 > x0 and y1 > y0,
    else ValueError, as in ``find_zeros``.  If an edge passes too close to a
    zero for the winding quadrature, the right and top edges move out by
    1e-2, 2e-2, ... (at most 0.16) and the left and bottom ones half as far
    (at most half their distance to an axis they are off) until the count
    converges.
    """
    if not all(map(math.isfinite, rect)):
        raise ValueError(f"rect {rect} is not finite")
    if not (rect[1] > rect[0] and rect[3] > rect[2]):
        raise ValueError(f"empty rect {rect}")
    return _on_padded_rects(_Service(profile, rect), rect, _count).count


# ---------------------------------------------------------------------------
# subdivision search
# ---------------------------------------------------------------------------


class _Cell:
    """A search rect with its ``count`` and ``moments`` as ``_winding_many`` gives them."""
    __slots__ = ("rect", "count", "moments")

    def __init__(self, rect, count, moments=None):
        self.rect, self.count, self.moments = rect, count, moments


def _halves(rect):
    """The two halves of ``rect`` on either side of the midpoint of its longer side."""
    x0, x1, y0, y1 = rect
    if (x1 - x0) >= (y1 - y0):
        xm = 0.5 * (x0 + x1)
        return (x0, xm, y0, y1), (xm, x1, y0, y1)
    ym = 0.5 * (y0 + y1)
    return (x0, x1, y0, ym), (x0, x1, ym, y1)


def _subdivide(service, cells):
    """Split each of ``cells`` into its halves and count them, then split every
    half of more than _MMAX zeros, until each nonempty part holds at most
    _MMAX zeros; return those parts.  ContourTooClose if a half's count fails
    or two halves do not add up to their cell's count."""
    clusters = []
    for _round in range(200):
        if not cells:
            return clusters
        rects = [half for cell in cells for half in _halves(cell.rect)]
        parts = [_Cell(r, n, s) for r, (n, _abs_d, s) in zip(rects, _winding_many(service, rects))]
        for cell, a, b in zip(cells, parts[::2], parts[1::2]):
            if None in (a.count, b.count) or a.count + b.count != cell.count:
                raise ContourTooClose(f"the halves of cell {cell.rect} do not count its zeros")
        clusters += [part for part in parts if 0 < part.count <= _MMAX]
        cells = [part for part in parts if part.count > _MMAX]
    raise ContourTooClose("subdivision did not terminate")


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def _pencil(cell):
    """The distinct zeros of a counted cell as (k, multiplicity, circle radius),
    or [] if its moments give no usable ones.

    A cell of count m with distinct zeros u_j = (k_j - c)/r of multiplicity
    nu_j has the moments s_p = sum_j nu_j u_j^p.  Their number n is the rank
    of H0 = [s_(i+j)], i, j < m (singular values above _RANK_TOL times the
    largest), the u_j are the eigenvalues of the pencil of the leading n x n
    blocks of H0 and H1 = [s_(i+j+1)] and the nu_j solve sum_j nu_j u_j^p =
    s_p, p < n (Kravanja, Sakurai & Van Barel, BIT 39, 1999).  Points with
    |nu_j| <= 0.25 are dropped; if the rest lie within _SPLIT_FLOOR of the
    centroid s_1/s_0, noise has split one multiple zero there.  [] unless the
    multiplicities are positive integers (to 0.25) summing to m, each zero is
    within its radius of the cell and no two circles overlap (both could
    count one zero)."""
    m, s = cell.count, cell.moments
    x0, x1, y0, y1 = cell.rect
    c, r = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), 0.5 * max(x1 - x0, y1 - y0)
    ij = np.add.outer(np.arange(m), np.arange(m))
    try:
        sv = np.linalg.svd(s[ij], compute_uv=False)
        n = int((sv > _RANK_TOL * sv[0]).sum())
        u = np.linalg.eigvals(np.linalg.solve(s[ij[:n, :n]], s[ij[:n, :n] + 1]))
        nu = np.linalg.solve(u ** np.arange(n)[:, None], s[:n])
    except np.linalg.LinAlgError:      # no SVD, a singular block or two coinciding points
        return []
    weighty = np.abs(nu) > 0.25        # a point of weight 0 is no zero
    k, w, centroid = c + r * u[weighty], nu[weighty], c + r * s[1] / s[0]
    if np.all(np.abs(k - centroid) <= _SPLIT_FLOOR):
        k, w = np.array([centroid]), s[:1]
    mult = np.round(w.real)
    h = np.where(mult == 1, np.maximum(1e-3, 2e-4 * np.abs(k)), _SPLIT_FLOOR)
    inside = (x0 - h <= k.real) & (k.real <= x1 + h) & (y0 - h <= k.imag) & (k.imag <= y1 + h)
    apart = (np.abs(k[:, None] - k) > h[:, None] + h) | np.eye(len(k), dtype=bool)
    if (not np.isfinite(np.append(u, nu)).all() or np.abs(w - mult).max() > 0.25
            or mult.min() < 1 or mult.sum() != m or not inside.all() or not apart.all()):
        return []
    return list(zip(k.tolist(), mult.astype(int).tolist(), h.tolist()))


def _circles(service, centres, radii, counts):
    """(count:int|None, min_absD, winding, centroid) of circles of ``radii``
    about ``centres`` (arrays), with 8 m trapezoid nodes z = c + h e^(2 pi i
    j / 8m) for count m, all in one batch; w = mean(d'/d (z - c)) and the
    centroid is c + mean(d'/d (z - c)^2) / w (Trefethen & Weideman, SIAM
    Review 56, 2014).  The count is m if |w - m| <= _CIRCLE_TOL (m = 1) or
    0.25 (m >= 2), and None otherwise."""
    n = 8 * counts
    start = np.cumsum(n) - n
    owner = np.repeat(np.arange(n.size), n)
    u = radii[owner] * np.exp(2j * np.pi * (np.arange(n.sum()) - start[owner]) / n[owner])
    ld, absD = service.eval(centres[owner] + u)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.add.reduceat(ld * u, start) / n
        k = centres + np.add.reduceat(ld * u * u, start) / (n * w)
    ok = np.abs(w - counts) <= np.where(counts == 1, _CIRCLE_TOL, 0.25)
    return [(int(m) if good else None, mn, wi, ki) for m, good, mn, wi, ki
            in zip(counts, ok, np.minimum.reduceat(absD, start), w, k)]


def _refine_clusters(service, clusters):
    """Verify the zeros ``_pencil`` reads off each counted cell: one of multiplicity
    m passes if its circle counts m zeros (radius max(1e-3, 2e-4 |k|) for m = 1,
    centred on its zero so that 8 nodes suffice, and _SPLIT_FLOOR for m >= 2)
    and, if simple, |d/d'| <= _STEP_CERT (1 + |k|) at the circle's centroid,
    where it is placed: a Newton step that would still move it means the pencil
    point is not the zero (9 evaluations with its residual).  Returns the (k,
    multiplicity, residual, Certificate) of cells whose zeros all pass, and the rest."""
    zeros = [(cell, *zero) for cell in clusters for zero in _pencil(cell)]
    cells, ks, ms, hs = zip(*zeros) if zeros else ((),) * 4
    circles = _circles(service, np.array(ks, dtype=complex), np.array(hs), np.array(ms, dtype=int))
    failed = set(clusters) - set(cells)
    failed |= {cell for cell, m, (n, *_rest) in zip(cells, ms, circles) if n != m}
    counted = [(cell, m, h, k, abs(w - n), mn) for cell, m, h, (n, mn, w, k)
               in zip(cells, ms, hs, circles) if cell not in failed]
    ld, absD = service.eval(np.array([k for _cell, _m, _h, k, _defect, _mn in counted]))
    with np.errstate(divide="ignore", invalid="ignore"):
        # the Newton step |d/d'|; d'/d infinite means d vanishes at k to working precision
        step = np.where(np.isinf(ld), 0.0, np.abs(1.0 / ld))
    found = []
    for (cell, m, h, k, defect, mn), s, aD in zip(counted, step, absD):
        if m == 1 and not s <= _STEP_CERT * (1.0 + abs(k)):
            failed.add(cell)
        cert = Certificate(float(h), float(defect), float(s) if m == 1 else None, float(mn))
        found.append((cell, (complex(k), m, float(aD), cert)))
    back = [cell for cell in clusters if cell in failed]
    service.stats["retries"]["resplit"] += len(back)
    return [zero for cell, zero in found if cell not in failed], back


# ---------------------------------------------------------------------------
# top-level searches
# ---------------------------------------------------------------------------


def _canonicalize(found):
    """Map (k, multiplicity, residual, certificate) to the closed first
    quadrant, classify, merge duplicates.

    Returns (zeros, duplicates_removed_multiplicity).
    """
    out = []
    removed = 0
    for k, mult, residual, cert in sorted(found,
                                          key=lambda f: (abs(f[0].real), abs(f[0].imag))):
        k = complex(abs(k.real), abs(k.imag))
        cls = "real" if k.imag <= _REAL_CLASS_TOL * (1.0 + abs(k.real)) else "nonreal"
        if cls == "real":
            k = complex(k.real, 0.0)
        dup = next((z for z in out if abs(z.k - k) < 5e-7 * (1.0 + abs(k))), None)
        if dup is not None:
            removed += mult
            continue
        out.append(SpectralZero(k=k, multiplicity=mult, cls=cls, residual=residual,
                                certificate=cert))
    out.sort(key=lambda z: (z.k.real, z.k.imag))
    return out, removed


def _search(service, rect):
    """The counted cell of ``rect`` and the refined zeros inside it, with every
    cell refined counted in the ``clusters`` stat.  ContourTooClose if a contour
    or split fails, NewtonStall if refinement hands back a cell narrower than
    _SPLIT_FLOOR."""
    service.enter("count")
    top = _count(service, rect)
    clusters = [top] if 0 < top.count <= _MMAX else []
    refined, cells = [], [top] if top.count > _MMAX else []
    while clusters or cells:
        service.enter("subdivide")
        clusters += _subdivide(service, cells)
        service.enter("refine")
        service.stats["clusters"] += len(clusters)
        found, cells = _refine_clusters(service, clusters)
        refined, clusters = refined + found, []
        stalled = [c.rect for c in cells if max(c.rect[1] - c.rect[0],
                                                c.rect[3] - c.rect[2]) < _SPLIT_FLOOR]
        if stalled:
            raise NewtonStall(f"zeros in cell {stalled[0]}, narrower than "
                              f"{_SPLIT_FLOOR}, could not be refined")
    return top, refined


def find_zeros(profile: RefractiveProfile, rect) -> SearchReport:
    """All zeros of d (with multiplicity) in a finite first-quadrant rectangle.

    A rect flush with the real axis is padded slightly below it so that
    real zeros are captured; canonical representatives are reported once.
    A failed contour or split, or a stalled cell, restarts the search on the
    next padded rect.
    """
    x0, x1, y0, y1 = map(float, rect)
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise ValueError(f"rect {rect} is not finite")
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"empty rect {rect}")
    if x0 < -1e-9 or y0 < -1e-9:
        raise ValueError("rect must lie in the closed first quadrant")
    if math.hypot(x0, y0) < _TRIVIAL_CLEARANCE:
        raise ValueError(f"rect {rect} comes within {_TRIVIAL_CLEARANCE} of k = 0, a zero "
                         "of d for every profile (d(0) = y'(1,0) - y(1,0) = 0); keep its "
                         f"corner (x0, y0) at least {_TRIVIAL_CLEARANCE} from it")
    search_rect = (x0, x1, -min(0.15, 0.5 * (y1 - y0)) if y0 <= 1e-9 else y0, y1)

    service = _Service(profile, search_rect)
    top, refined = _on_padded_rects(service, search_rect, _search)
    service.enter(service.phase)        # charge the last phase
    zeros, removed = _canonicalize(refined)
    noteworthy = [z.k for z in zeros if z.cls == "nonreal" and z.multiplicity > 1]
    stats = dict(service.stats)
    stats.update(duplicates_removed=removed, noteworthy_multiple_nonreal=noteworthy)
    return SearchReport(rect=top.rect, zeros=zeros,
                        total_count_by_argument_principle=top.count - removed,
                        stats=stats, timings=service.timings)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _jsonable(value):
    """Complex numbers as [re, im], recursively through lists."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return [value.real, value.imag] if isinstance(value, complex) else value


def report_to_json(report: SearchReport) -> dict:
    x0, x1, y0, y1 = report.rect
    return {
        "rect": [x0, x1, y0, y1],
        "zeros": [{"re": z.k.real, "im": z.k.imag, "mult": z.multiplicity,
                   "class": z.cls, "residual": z.residual,
                   "certificate": z.certificate and asdict(z.certificate)}
                  for z in report.zeros],
        "count": report.total_count_by_argument_principle,
        "stats": {key: _jsonable(v) for key, v in report.stats.items()},
        "timings": dict(report.timings),
    }


def write_zeros_csv(path, zeros):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re_k", "im_k", "multiplicity", "class", "residual"])
        for z in zeros:
            w.writerow([f"{z.k.real:.12e}", f"{z.k.imag:.12e}",
                        z.multiplicity, z.cls, f"{z.residual:.3e}"])


def read_zeros_csv(path):
    """The zeros of a ``write_zeros_csv`` table, without certificates."""
    with open(path, newline="") as fh:
        return [SpectralZero(complex(float(r["re_k"]), float(r["im_k"])), int(r["multiplicity"]),
                             r["class"], float(r["residual"])) for r in csv.DictReader(fh)]


def write_report_json(path, report: SearchReport):
    """``report_to_json`` without the run-dependent ``timings``, so reruns write equal files."""
    payload = {key: v for key, v in report_to_json(report).items() if key != "timings"}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
