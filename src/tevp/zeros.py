"""Zero localization for the characteristic function d(k).

Strategy: argument-principle winding counts over rectangle contours,
subdivision until every nonempty cell holds at most _MMAX zeros and is
narrow enough for its count, then refinement, in a loop: a cell that
refinement cannot certify goes back to the subdivision, so counting smaller
cells is the only way zeros are separated.  The width a cell must reach
depends on its count: a count-1 cell is refined once it is at most
_SIMPLE_DIAM (8) wide, because its centroid is its zero and the verification
circle and certificate below reject a bad one; a cell of count 2 .. _MMAX
only at _CLUSTER_DIAM (0.4), because its centroid is a mean of zeros that
may still be apart.  The rectangle rule, which counts and subdivides, takes
the integral of k d'/d with that of d'/d from the same nodes, so each
counted cell also has the centroid of its zeros at no extra evaluation.
Refinement checks each cell on one circle about its centroid (_circles), of
radius max(1e-3, 2e-4 |c|) for count 1 and _SPLIT_FLOOR for count m >= 2,
and reports its zeros at the circle's own centroid if the circle counts
them all; a count-1 circle is centred on its zero, so 8 nodes suffice.  A
simple zero also needs the certificate |d/d'| <= 1e-10 (1 + |k|) there,
from the evaluation that gives its residual (9 evaluations in all): a
Newton step that would still move it means the centroid is not the zero.
A multiple zero, or a cluster that floating-point noise has split below the
floor, is reported once.  Any other cell, including one whose circle does
not count its zeros, is split again.  One narrower than _SPLIT_FLOOR raises
NewtonStall, unless it touches the outer contour: the discretised d_h may
split a multiple zero that the contour runs through, so the search restarts
on the next padded outer contour instead.

All evaluations of one search go through its batching service, on one RK8
grid: _PER_RADIAN steps per radian of phase at the largest |k| any contour of
the search can reach.  Every count, centroid and certificate of the search is
therefore exact for one analytic function d_h, and every cached segment is
valid for every later contour.  Contour pieces are rows of numpy arrays
(owner rect, start, end).  An edge starts as pieces at most _SEG_LEN (6)
long; a piece whose 12-node rule disagrees with its two halves is bisected,
so only rough stretches of an edge pay for short pieces.  A segment's table
row (integrals of d'/d and k d'/d, max and min |D|) is keyed by its ends: a
child cell's edges that its parent integrated, the split line two siblings
share and a refined segment's halves (the next round's coarse rules) are each
evaluated once.  _bisect halves every piece at 0.5 (a + b), so the keys are bit-equal.
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
_MMAX = 4                    # cells holding more zeros are always split
_SIMPLE_DIAM = 8.0           # count-1 cells at most this wide go to refinement
_CLUSTER_DIAM = 0.4          # cells of count 2 .. _MMAX at most this wide do
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
_RETRIES = ("inflate", "jitter", "resplit")
_TRIVIAL_CLEARANCE = 1e-2    # least distance from k = 0 of a search rect's corner (x0, y0)
_PADS = (1e-2, 2e-2, 4e-2, 8e-2, 0.16)   # outward moves of an outer contour's edges


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
    ``phase_evals`` (their split over count / subdivide / refine; refine is
    the verification circles and the residual and certificate evaluation at
    their centroids: 9 per simple zero), ``batches`` (engine calls),
    ``ksteps`` (points times grid steps), ``phase_ksteps`` (their split over
    the same phases), ``segments_reused`` (segment rules the cache, or the
    same batch, already held), ``retries`` (``inflate``: outer contours
    padded off a zero or off a cell stalled on the contour; ``jitter``: cells
    split again on a shifted line; ``resplit``: cells refinement handed back
    to the subdivision because a verification circle did not count the
    cell's zeros or a simple zero failed its certificate), ``clusters``
    (cells refined, handed-back ones included), ``duplicates_removed`` and
    ``noteworthy_multiple_nonreal``.  Each zero carries the ``certificate``
    that accepted it (see ``Certificate``).  ``timings``: wall seconds per
    phase, out of ``stats`` as they vary by run."""
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
    verification circle's radius.  ``segments`` maps a segment (a, b),
    a before b by (re, im), to its row of ``table``: the 12-node integrals
    of d'/d and of k d'/d from a to b, and the max and min |D| at the nodes.
    A segment traversed from b to a reads the negated integrals.
    """

    def __init__(self, profile: RefractiveProfile, rect):
        x0, x1, y0, y1 = _padded_rects(rect)[-1]
        reach = math.hypot(max(abs(x0), abs(x1)), max(abs(y0), abs(y1)))
        # a verification circle reaches one radius past its centroid; the pad is twice that
        self.n_steps = grid_steps(profile, reach + 2.0 * max(_SPLIT_FLOOR, 2e-4 * reach),
                                  _PER_RADIAN)
        self.profile = profile
        self.a = travel_time(profile)
        self.segments, self.table = {}, np.zeros((0, 4), dtype=complex)
        self.phase, self._since = "count", time.perf_counter()
        self.timings = dict.fromkeys(_PHASES, 0.0)
        self.stats = {"batches": 0, "evals": 0, "ksteps": 0, "segments_reused": 0,
                      "phase_evals": dict.fromkeys(_PHASES, 0),
                      "phase_ksteps": dict.fromkeys(_PHASES, 0),
                      "retries": dict.fromkeys(_RETRIES, 0)}

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
        """12-node integrals of d'/d and k d'/d along the pieces a -> b (arrays),
        and max and min |D| on each.

        Only pieces missing from ``segments`` are evaluated, in one batch, in
        the order first seen; a piece given twice, or in both orientations, once.
        """
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
            with np.errstate(invalid="ignore"):
                new = [(ld @ w_gl) * h, ((nodes * ld) @ w_gl) * h, absD.max(1), absD.min(1)]
            self.table = np.concatenate([self.table, np.array(new).T])
        ints, moms, mx, mn = self.table[row].T
        sign = np.where(forward, 1.0, -1.0)
        return ints * sign, moms * sign, mx.real, mn.real


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
    """Winding numbers and zero centroids of d over rectangle boundaries.

    Every contour is integrated on the service's one grid, so each closed
    contour integrates the same analytic d_h.  A segment is accepted when its
    12-node rule agrees with the sum over its two halves to _SEG_TOL, and
    otherwise replaced by the halves, whose rules are then already cached.

    Returns a list of (count:int|None, (min_absD, max_absD):(float, float),
    winding:complex, centroid:complex) with |D| over every node evaluated
    for the rect; count None marks a contour-too-close failure (non-integer
    defect or unconverged segment).  The centroid is the mean of the zeros
    inside, c + (M - c T) / (2 pi i n) from T = the integral of d'/d, M =
    that of k d'/d and c the rect centre (Delves & Lyness, Math. Comp. 21,
    1967); a rect without a counted zero returns its centre.
    """
    idx, z0, z1 = _contour_pieces(rects)
    m = len(rects)
    totals = np.zeros(m, dtype=complex)
    moments = np.zeros(m, dtype=complex)
    max_absD = np.zeros(m)
    min_absD = np.full(m, np.inf)
    failed = np.zeros(m, dtype=bool)

    for depth in range(_MAX_ROUNDS):
        if not idx.size:
            break
        # every piece, then its left and its right half, split as _bisect splits it
        mid = 0.5 * (z0 + z1)
        ints, moms, mx, mn = service.rules(np.concatenate([z0, z0, mid]),
                                           np.concatenate([z1, mid, z1]))
        ridx = np.tile(idx, 3)
        np.maximum.at(max_absD, ridx, mx)
        np.minimum.at(min_absD, ridx, mn)
        (coarse, left, right), (_m, m_left, m_right) = ints.reshape(3, -1), moms.reshape(3, -1)
        fine, m_fine = left + right, m_left + m_right
        gap = np.abs(coarse - fine)
        # a node hit a zero of d dead-on: this contour is unusable
        failed[idx[~np.isfinite(gap)]] = True
        done = gap <= _SEG_TOL
        np.add.at(totals, idx[done], fine[done])
        np.add.at(moments, idx[done], m_fine[done])
        split = np.isfinite(gap) & ~done
        if depth == _MAX_ROUNDS - 1:
            failed[idx[split]] = True
        failed |= np.bincount(idx[split], minlength=m) > _MAX_SPLITS
        # the split pieces' halves, in place
        keep = split & ~failed[idx]
        idx, z0, z1 = _bisect(idx[keep], z0[keep], z1[keep], keep[keep])

    out = []
    for i, (x0, x1, y0, y1) in enumerate(rects):
        w = totals[i] / (2j * np.pi)
        n = int(round(w.real))
        ok = not failed[i] and abs(w - n) <= 0.25 and n >= 0
        c = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        if ok and n:
            c += complex((moments[i] - c * totals[i]) / (2j * np.pi * n))
        out.append((n if ok else None, (min_absD[i], max_absD[i]), w, c))
    return out


# ---------------------------------------------------------------------------
# public counting
# ---------------------------------------------------------------------------


def _padded_rects(rect):
    """``rect``, then ``rect`` with every edge moved out by each of _PADS.

    A left (bottom) edge at x0 > 0 (y0 > 0) moves at most x0 / 2 (y0 / 2):
    padding never carries it across the axis to k = 0.
    """
    x0, x1, y0, y1 = rect
    return [rect] + [(x0 - (min(pad, 0.5 * x0) if x0 > 0 else pad), x1 + pad,
                      y0 - (min(pad, 0.5 * y0) if y0 > 0 else pad), y1 + pad)
                     for pad in _PADS]


def _count_with_perturbation(service, rects):
    """Winding count on the first of ``rects`` whose contour converges.

    Each contour passed over is an ``inflate`` retry.  Returns (count,
    rect_used).
    """
    worst_mx = 0.0
    for j, rect in enumerate(rects):
        if j:
            service.stats["retries"]["inflate"] += 1
        (n, (_mn, mx), _w, _c), = _winding_many(service, [rect])
        worst_mx = max(worst_mx, mx)
        if worst_mx < DEGENERACY_FLOOR:
            raise DegenerateCharacteristic(
                f"max |D| on contour {worst_mx:.3e} below the degeneracy floor")
        if n is not None:
            return n, rect
    raise ContourTooClose(f"winding defect > 0.25 for rect {rects[0]} and "
                          f"{len(rects) - 1} padded contours")


def count_zeros(profile: RefractiveProfile, rect) -> int:
    """Number of zeros of d (with multiplicity) inside the rectangle.

    ``rect`` is (x0, x1, y0, y1) anywhere in the plane; a non-finite entry
    raises ValueError, as it does in ``find_zeros``.  If an edge passes too
    close to a zero for the winding quadrature, every edge is moved outward by
    1e-2, then 2e-2, ... (at most 0.16) until the count converges; a left or
    bottom edge off the axis moves at most half its distance to it.
    """
    if not all(map(math.isfinite, rect)):
        raise ValueError(f"rect {rect} is not finite")
    return _count_with_perturbation(_Service(profile, rect), _padded_rects(rect))[0]


# ---------------------------------------------------------------------------
# subdivision search
# ---------------------------------------------------------------------------


class _Cell:
    __slots__ = ("rect", "count", "centroid", "parent", "jitter", "children")

    def __init__(self, rect, count=None, parent=None):
        self.rect, self.count, self.parent = rect, count, parent
        self.centroid = self.children = None
        self.jitter = 0


_JITTERS = (0.0, 0.08, -0.08, 0.16, -0.16)


def _split(cell: _Cell):
    x0, x1, y0, y1 = cell.rect
    off = _JITTERS[min(cell.jitter, len(_JITTERS) - 1)]
    if (x1 - x0) >= (y1 - y0):
        xm = 0.5 * (x0 + x1) + off * (x1 - x0)
        a, b = (x0, xm, y0, y1), (xm, x1, y0, y1)
    else:
        ym = 0.5 * (y0 + y1) + off * (y1 - y0)
        a, b = (x0, x1, y0, ym), (x0, x1, ym, y1)
    cell.children = (_Cell(a, parent=cell), _Cell(b, parent=cell))
    return cell.children


def _subdivide(service, cells):
    """Split ``cells``, then their parts, until every nonempty part holds at
    most _MMAX zeros and is narrow enough for its count; return those parts.

    A part of count 1 is narrow enough at _SIMPLE_DIAM wide: refinement
    verifies its centroid with a circle and the Newton-step certificate, and
    hands it back if either fails.  A part of count 2 .. _MMAX must be at most
    _CLUSTER_DIAM wide, so that zeros still apart are separated by counts.
    """
    clusters = []
    pending = [part for cell in cells for part in _split(cell)]

    def decide(cell):
        x0, x1, y0, y1 = cell.rect
        if cell.count == 0:
            return
        diam = _SIMPLE_DIAM if cell.count == 1 else _CLUSTER_DIAM
        if cell.count <= _MMAX and max(x1 - x0, y1 - y0) <= diam:
            clusters.append(cell)
        else:
            pending.extend(_split(cell))

    rounds = 0
    while pending and rounds < 200:
        rounds += 1
        batch, pending = pending, []
        for cell, (n, _abs_d, _w, centroid) in zip(
                batch, _winding_many(service, [c.rect for c in batch])):
            cell.count, cell.centroid = n, centroid
        retry_parents = []
        for parent in dict.fromkeys(c.parent for c in batch):
            counts = [c.count for c in parent.children]
            if None in counts or sum(counts) != parent.count:
                retry_parents.append(parent)
            else:
                for c in parent.children:
                    decide(c)
        service.stats["retries"]["jitter"] += len(retry_parents)
        for parent in retry_parents:
            parent.jitter += 1
            if parent.jitter >= len(_JITTERS):
                raise ContourTooClose(
                    f"could not find a clean split line for cell {parent.rect}")
            pending.extend(_split(parent))
    if pending:
        raise ContourTooClose("subdivision did not terminate")
    return clusters


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def _circles(service, centres, radii, counts):
    """``_winding_many``'s tuples for circles of ``radii`` about ``centres`` (arrays).

    A circle of count m has 8 m trapezoid nodes z = c + h e^(2 pi i j / 8m),
    every circle in one batch; w = mean(d'/d (z - c)) and the centroid is
    c + mean(d'/d (z - c)^2) / w (Trefethen & Weideman, SIAM Review 56, 2014).
    The count is m if |w - m| <= _CIRCLE_TOL (m = 1) or 0.25 (m >= 2), and
    None otherwise; |D| is taken over the circle's nodes.
    """
    n = 8 * counts
    start = np.cumsum(n) - n
    owner = np.repeat(np.arange(n.size), n)
    u = radii[owner] * np.exp(2j * np.pi * (np.arange(n.sum()) - start[owner]) / n[owner])
    ld, absD = service.eval(centres[owner] + u)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.add.reduceat(ld * u, start) / n
        k = centres + np.add.reduceat(ld * u * u, start) / (n * w)
    ok = np.abs(w - counts) <= np.where(counts == 1, _CIRCLE_TOL, 0.25)
    mn, mx = np.minimum.reduceat(absD, start), np.maximum.reduceat(absD, start)
    return [(int(m) if good else None, (lo, hi), wi, ki)
            for m, good, lo, hi, wi, ki in zip(counts, ok, mn, mx, w, k)]


def _refine_clusters(service, clusters):
    """Refine the zeros of counted cells, as the module docstring sets out.

    Returns ((k, multiplicity, residual, Certificate) per certified zero,
    cells to split again).
    """
    centres = np.array([cell.centroid for cell in clusters], dtype=complex)
    counts = np.array([cell.count for cell in clusters], dtype=int)
    radii = np.where(counts == 1, np.maximum(1e-3, 2e-4 * np.abs(centres)), _SPLIT_FLOOR)
    counted = [(cell, h, k, abs(w - n), mn) for cell, h, (n, (mn, _mx), w, k) in zip(
        clusters, radii, _circles(service, centres, radii, counts)) if n == cell.count]
    ld, absD = service.eval(np.array([k for _cell, _h, k, _defect, _mn in counted]))
    with np.errstate(divide="ignore", invalid="ignore"):
        # the Newton step |d/d'|; d'/d infinite means d vanishes at k to working precision
        step = np.where(np.isinf(ld), 0.0, np.abs(1.0 / ld))
    found, verified = [], set()
    for (cell, h, k, defect, mn), s, aD in zip(counted, step, absD):
        if cell.count > 1 or s <= _STEP_CERT * (1.0 + abs(k)):
            cert = Certificate(float(h), float(defect),
                               float(s) if cell.count == 1 else None, float(mn))
            found.append((complex(k), cell.count, float(aD), cert))
            verified.add(cell)

    back = [cell for cell in clusters if cell not in verified]
    service.stats["retries"]["resplit"] += len(back)
    return found, back


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


def find_zeros(profile: RefractiveProfile, rect) -> SearchReport:
    """All zeros of d (with multiplicity) in a finite first-quadrant rectangle.

    A rect flush with the real axis is padded slightly below it so that
    real zeros are captured; canonical representatives are reported once.
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
    outer = _padded_rects(search_rect)
    total, used_rect = _count_with_perturbation(service, outer)
    cells = [_Cell(used_rect, count=total)] if total else []
    refined, n_clusters = [], 0
    while cells:
        service.enter("subdivide")
        clusters = _subdivide(service, cells)
        service.enter("refine")
        found, cells = _refine_clusters(service, clusters)
        refined += found
        n_clusters += len(clusters)
        stalled = [c.rect for c in cells if max(c.rect[1] - c.rect[0],
                                                c.rect[3] - c.rect[2]) < _SPLIT_FLOOR]
        if stalled:
            rest = outer[outer.index(used_rect) + 1:]
            on_edge = all(any(a == b for a, b in zip(r, used_rect)) for r in stalled)
            if not (rest and on_edge):
                raise NewtonStall(f"zeros in cell {stalled[0]}, narrower than "
                                  f"{_SPLIT_FLOOR}, could not be refined")
            # d_h may split a multiple zero that the outer contour runs through
            service.stats["retries"]["inflate"] += 1
            service.enter("count")
            total, used_rect = _count_with_perturbation(service, rest)
            cells = [_Cell(used_rect, count=total)] if total else []
            refined = []
    service.enter(service.phase)        # charge the last phase
    zeros, removed = _canonicalize(refined)
    noteworthy = [z.k for z in zeros if z.cls == "nonreal" and z.multiplicity > 1]
    stats = dict(service.stats)
    stats.update(clusters=n_clusters, duplicates_removed=removed,
                 noteworthy_multiple_nonreal=noteworthy)
    return SearchReport(rect=used_rect, zeros=zeros,
                        total_count_by_argument_principle=total - removed,
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
