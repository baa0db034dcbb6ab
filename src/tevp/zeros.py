"""Zero localization for an analytic function f, seen through f'/f and |F| only.

``_Service`` evaluates them and ``_d_service`` builds one for d(k) on one RK8
grid, d_h, conjugate-symmetric as eta is real.  Strategy: argument-principle
winding counts over rectangle contours (a rect flush with the real axis is
searched with its mirror image as one symmetric cell, counted from its three
upper edges), subdivision until every nonempty cell, the outer one included,
holds at most _MMAX zeros (2 _MMAX, mirror images included, if symmetric), at
any width, and refinement: a cell's distinct zeros and multiplicities are read
off the Hankel pencil of the moments its count gave (_pencil), each is
verified on a circle and, if simple, by a Newton-step certificate (_refine),
and a cell is accepted only if all its zeros are and split again otherwise, so
the pencil can cost evaluations but not give a wrong zero.  One repair: d_h
may split a multiple zero that a contour or split line runs through, so a
search whose count or split fails (a contour fails if still bisecting after
_MAX_ROUNDS = 12 rounds), or that must split a cell narrower than
_SPLIT_FLOOR, restarts on the next padded rect, whose split lines moved.

Seeds: ``find_zeros`` passes the zeros the paper's asymptotics predict near the
rect (_predictions).  A search is seeded only when those inside would take its
outer cell over its cap, so that it would split; then each runs Newton while the
outer contour is counted, and each that settles is verified on its own circle
and certificate.  A seed is only a start: the count decides completeness.  The
outer moments are deflated by the seeds' zeros (_deflated), one pencil of the
remainder finds the zeros no seed reached, and a search whose certified zeros
still fall short of the count splits as without seeds, each cell deflated by
the zeros it holds.  Poor predictions (first Newton steps over _SEED_TRUST)
that leave more zeros than a pencil takes send the outer cell to the split in
the round it would split without seeds.

A search is one round loop (_search), each round one ``evaluate`` call that
carries every pending contour piece (the piece table, _Service._file, cuts
every edge) of every counting cell, every verification circle and every
certificate point, and every seed's Newton point (``batches`` counts rounds).
A cell not yet split is split in the first round its count (while counting,
its provisional winding: an early split) exceeds its cap, or in the round
refinement hands it back.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .asymptotics import predict_nonreal, predict_real
from .errors import (ContourTooClose, DegenerateCharacteristic, IterationDiverged, NewtonStall,
                     RegimeError)
from .forward import _composed_table, _table_shape, characteristic_batch, grid_steps
from .profiles import RefractiveProfile, travel_time

__all__ = [
    "Certificate",
    "SpectralZero",
    "SearchReport",
    "count_zeros",
    "find_zeros",
    "report_to_json",
    "read_zeros_csv",
    "write_scatter_csv",
    "write_zeros_csv",
]

DEGENERACY_FLOOR = 1e-9      # max |D| on a contour below which d is treated as == 0
_REAL_CLASS_TOL = 1e-9       # |Im k| <= tol*(1+|Re k|) classifies a zero as real
_MMAX = 4                    # cells of 1 .. _MMAX zeros go to refinement, larger ones are split
_RANK_TOL = 1e-8             # singular values of H0 below this share of the largest are 0
_SPLIT_FLOOR = 2e-3          # clusters cohesive at this radius count as one multiple zero
_GL_NODES = np.polynomial.legendre.leggauss(12)
_SEG_LEN = 5.5               # longest contour piece evaluated; longer ones are halved unevaluated
_PER_RADIAN = 3.5            # grid steps per radian of phase at a search's largest |k|
_SEG_TOL = 1e-3              # a segment rule must match its two halves' sum to this
_AXIS_TOL = 1e-4             # ... if it starts on the real axis, for a conjugate-symmetric f
_MAX_ROUNDS = 12             # segment-bisection rounds before a contour fails
_STEP_CERT = 1e-10           # a simple zero needs |d/d'| <= _STEP_CERT (1 + |k|)
_CIRCLE_TOL = 1e-6           # a simple zero's circle must wind within this of 1
_MAX_PENDING = 256           # a contour fails once more of its pieces than this are pending
_PHASES = ("count", "subdivide", "refine")
_RETRIES = ("inflate", "resplit")
_TRIVIAL_CLEARANCE = 1e-2    # least distance from k = 0 of a search rect's corner (x0, y0)
_PADS = (1e-2, 2e-2, 4e-2, 8e-2, 0.16)   # outward moves of a padded rect's right, top edges
_NEWTON_CLAMP = 2.0          # longest Newton step a seed takes
_NEWTON_STEPS = 8            # Newton steps after which a seed that has not settled is dropped
_SEED_TRUST = 0.4            # a seed whose first Newton step is at most this long is trusted


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
    ``phase_evals`` (their split over count / subdivide / refine: the outer
    cell's contour pieces, the other cells', and the verification circles and
    certificate points, 9 per simple zero, 10 after a Newton retry), ``batches``
    (engine calls, one per round of the search), ``ksteps`` (points times grid
    steps), ``phase_ksteps`` (their split over the same phases),
    ``segments_reused`` (segment rules the cache, or the same batch, already
    held), ``retries`` (``inflate``: rects given up for the next padded one,
    because a contour or a split failed or a cell stalled; ``resplit``: cells
    handed back to the subdivision because their pencil gave no usable zeros or
    a zero failed its circle or certificate), ``clusters`` (cells resolved from
    their moments on every rect tried, handed-back ones included),
    ``early_splits`` (cells split on their provisional count, in any round
    before their contour converged), ``table`` (the engine table's ``n_steps``,
    ``centre``, ``radius``, ``steps_per_row`` and ``degree``), ``duplicates_removed``,
    ``noteworthy_multiple_nonreal`` and ``zero_step_certificates`` (zeros certified with
    Newton step 0.0, as d_h rounded to 0 there).  A seeded search adds ``seeded`` (the
    seeds it started from), ``deflated_count`` (the zeros of the outer count, mirror
    images included, that its settled seeds left to deflation; None if it gave its
    seeds up and split) and the phase ``seed`` (the seeds' Newton points; their circles
    and certificates are ``refine``).  Each zero carries the ``certificate`` that
    accepted it.  ``timings``: wall seconds per phase, each round's shared out
    by its points; out of ``stats`` as they vary by run."""
    rect: tuple
    zeros: list
    total_count_by_argument_principle: int
    stats: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# batched evaluation service and the piece table
# ---------------------------------------------------------------------------


class _Service:
    """Batches (f'/f, |F|) evaluations for one search and holds its contour pieces.

    ``evaluate(ks)`` gives f'/f and |F| at a 1-D complex array, F a scaled f
    (what DEGENERACY_FLOOR, residuals and ``min_abs_d`` read), at ``cost``
    k-steps a point; ``_d_service`` builds the one for d_h.  ``segments`` maps
    a segment (a, b), a before b by (re, im), to its row of ``nodes`` (12
    Gauss-Legendre nodes), ``wld`` (f'/f there times the weights), ``whole``
    (their sum) and ``peaks`` (max |F|).  The piece table ``pieces``, shared by
    every cell, maps a decided piece, keyed the same way, to (state, max |F| of
    its rule and its halves'): True if its rule matches its halves' sum to
    _SEG_TOL, False if split into them, None if failed.  ``symmetric`` declares
    f(conj k) = conj f(k); then a piece from the real axis, whose real zeros
    the gap understates at its end, must match to _AXIS_TOL."""

    def __init__(self, evaluate, cost, symmetric=False):
        self.evaluate, self.cost, self.symmetric = evaluate, cost, symmetric
        self.segments, self.pieces, self.whole, self.peaks = {}, {}, [], []
        self.nodes = self.wld = np.zeros((0, _GL_NODES[0].size), dtype=complex)
        self._since = time.perf_counter()
        self.timings = dict.fromkeys(_PHASES, 0.0)
        self.stats = {"batches": 0, "evals": 0, "ksteps": 0, "segments_reused": 0,
                      "phase_evals": dict.fromkeys(_PHASES, 0),
                      "phase_ksteps": dict.fromkeys(_PHASES, 0),
                      "retries": dict.fromkeys(_RETRIES, 0), "clusters": 0, "early_splits": 0}

    def eval(self, ks, phases):
        """Return (f'/f, |F|) at the given complex points, in one ``evaluate`` call;
        ``phases`` maps each phase to its number of points, and each is charged
        them and their share of the wall time since the last call (the "seed"
        phase of a seeded search, once ``_search`` has registered it)."""
        ks = np.asarray(ks, dtype=complex).ravel()
        if ks.size == 0:
            return np.zeros(0, complex), np.zeros(0)
        ld, absF = self.evaluate(ks)
        now = time.perf_counter()
        self.stats["batches"] += 1
        self.stats["evals"] += ks.size
        self.stats["ksteps"] += ks.size * self.cost
        for phase, n in phases.items():
            self.stats["phase_evals"][phase] += n
            self.stats["phase_ksteps"][phase] += n * self.cost
            self.timings[phase] += (now - self._since) * n / ks.size
        self._since = now
        return ld, absF

    def advance(self, cells, extra):
        """One round, one batch: the rules the cache lacks of every pending piece
        of the counting ``cells`` and of its halves, once however many cells
        share it, and the points of the (phase, points) pairs ``extra``, whose
        (f'/f, |F|) it returns.
        ContourTooClose if a cell's piece failed, or more than _MAX_PENDING of
        them, or any after _MAX_ROUNDS rounds, are pending; DegenerateCharacteristic
        if max |F| over an outer cell's pieces is below DEGENERACY_FLOOR."""
        todo = {}
        for cell in cells:
            if cell.rounds == 0:
                self._file(cell)
            for key, _sign in cell.pending:
                if key not in self.pieces:
                    todo.setdefault(key, cell.phase)
        # every pending piece, then its left and its right half, split as _file splits it
        rows, fresh, phases = [], [], dict.fromkeys(_PHASES, 0)
        for (lo, hi), phase in todo.items():
            for seg in ((lo, hi), (lo, mid := 0.5 * (lo + hi)), (mid, hi)):
                rows.append(self.segments.setdefault(seg, n := len(self.segments)))
                if rows[-1] == n:
                    fresh.append(seg)
                    phases[phase] += _GL_NODES[0].size
        self.stats["segments_reused"] += len(rows) - len(fresh)
        for phase, points in extra:
            phases[phase] = phases.get(phase, 0) + len(points)
        lo, hi = np.array(fresh, dtype=complex).reshape(-1, 2).T
        c, h = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
        nodes = c + h * _GL_NODES[0]
        ld, absD = self.eval(np.concatenate([nodes.ravel(), *(points for _phase, points in extra)]),
                             phases)
        with np.errstate(invalid="ignore"):
            wld = ld[:nodes.size].reshape(nodes.shape) * (_GL_NODES[1] * h)
        self.nodes, self.wld = np.concatenate([self.nodes, nodes]), np.concatenate([self.wld, wld])
        self.whole += wld.sum(1).tolist()
        self.peaks += absD[:nodes.size].reshape(nodes.shape).max(1, initial=0.0).tolist()
        for key, (r, left, right) in zip(todo, zip(*[iter(rows)] * 3)):
            gap = abs(self.whole[r] - (self.whole[left] + self.whole[right]))
            tol = _AXIS_TOL if self.symmetric and key[0].imag == 0.0 else _SEG_TOL
            self.pieces[key] = (gap <= tol if math.isfinite(gap) else None,
                                max(self.peaks[r], self.peaks[left], self.peaks[right]))
        for cell in cells:
            self._file(cell)
            cell.rounds += 1
            if cell.phase == "count" and cell.peak < DEGENERACY_FLOOR:
                raise DegenerateCharacteristic(f"max |D| on contour {cell.peak:.3e} below "
                                               "the degeneracy floor")
            if (any(key in self.pieces for key, _sign in cell.pending)
                    or len(cell.pending) > _MAX_PENDING
                    or cell.pending and cell.rounds >= _MAX_ROUNDS):
                raise ContourTooClose(f"the contour of cell {cell.rect} failed")
        self._settle([cell for cell in cells if not cell.pending])
        ends = np.cumsum([nodes.size, *(len(points) for _phase, points in extra)]).tolist()
        return [(ld[a:b], absD[a:b]) for a, b in zip(ends, ends[1:])]

    def _file(self, cell):
        """Replace ``cell.pending`` by what its pieces are in the table: the halves
        of an accepted piece join ``cell.accepted`` as (row, sign), a split one or
        one over _SEG_LEN gives way to its halves at 0.5 (lo + hi), others stay."""
        pending, stack = [], cell.pending[::-1]
        while stack:
            key, sign = stack.pop()
            lo, hi = key
            state, peak = self.pieces.get(key, (None if abs(hi - lo) <= _SEG_LEN else False, 0.0))
            cell.peak = max(cell.peak, peak)
            halves = (lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)
            if state:
                cell.accepted += [(self.segments[half], sign) for half in halves]
            elif state is None:
                pending.append((key, sign))
            else:
                stack += [(half, sign) for half in halves[::-1]]
        cell.pending = pending

    def _settle(self, cells):
        """Give each of ``cells`` its ``moments``: moments[p] = (1/2 pi i) I_p, I_p the
        integral of ((k - c)/r)^p f'/f, p < 4 _MMAX, over its accepted halves, about
        its centre c and scaled by its half-width r, as raw k^p moments lose every
        digit at |k| = 150 (Im I_p / pi for a symmetric cell, its lower path giving
        -conj I_p); and its ``count``, the winding number moments[0] if within 0.25
        of an integer >= 0, else ContourTooClose."""
        if not cells:
            return
        rows, sign = map(np.array, zip(*[half for cell in cells for half in sorted(cell.accepted)]))
        sizes = [len(cell.accepted) for cell in cells]
        owner = np.repeat(np.arange(len(cells)), sizes)
        x0, x1, y0, y1 = np.array([cell.rect for cell in cells], dtype=float).T
        centre, half = 0.5 * (x0 + x1) + 0.5j * (y0 + y1), 0.5 * np.maximum(x1 - x0, y1 - y0)
        u = (self.nodes[rows] - centre[owner, None]) / half[owner, None]
        terms = np.vander(u.ravel(), 4 * _MMAX, increasing=True)
        terms *= (self.wld[rows] * sign[:, None]).reshape(-1, 1)
        moments = np.add.reduceat(terms, (np.cumsum(sizes) - sizes) * u.shape[1], axis=0)
        for cell, s in zip(cells, moments / (2j * np.pi)):
            s = 2.0 * s.real if cell.sym else s
            if not (abs(s[0] - (n := round(s[0].real))) <= 0.25 and n >= 0):
                raise ContourTooClose(f"winding defect > 0.25 for rect {cell.rect}")
            cell.count, cell.moments = n, s

    def outer_cell(self, rect):
        """A count's or search's outer cell, symmetric if f is and ``rect`` is (x0, x1, -y, y)."""
        return _Cell(rect, "count", sym=self.symmetric and rect[2] == -rect[3])

    def provisional(self, cell):
        """The winding number so far of a counting ``cell``: accepted plus pending pieces."""
        w = (sum(sign * self.whole[row] for row, sign in cell.accepted)
             + sum(sign * self.whole[self.segments[key]] for key, sign in cell.pending)
             ) / (2j * math.pi)
        return 2.0 * w.real if cell.sym else w


# ---------------------------------------------------------------------------
# public counting
# ---------------------------------------------------------------------------


def _padded_rects(rect):
    """``rect``, then ``rect`` with its right and top edges moved out by each of
    _PADS and its left and bottom edges by half as much, at most halfway to an
    axis they are off (never across it to k = 0), and a bottom edge -y1 as far as
    the top one: the centre, and with it every split line, moves too."""
    x0, x1, y0, y1 = rect
    return [rect] + [(x0 - 0.5 * (min(pad, x0) if x0 > 0 else pad), x1 + pad,
                      -y1 - pad if y0 == -y1 else
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


def _d_service(profile, rect):
    """A ``_Service`` over d_h: d'/d and |D| = |d k| e^(-(1 + a)|Im k|), a the travel
    time, from ``characteristic_batch`` looked up at each call, on the grid for the
    largest |k| on ``rect``: a corner of its widest padded rect plus twice a circle's
    radius.  Its table (``stats["table"]``) is centred on the disk about that rect's real
    midpoint that holds the rect and four radii more: a zero a radius outside its cell,
    its circle and a Newton retry.  d_h is conjugate-symmetric, as the profile is real."""
    x0, x1, y0, y1 = _padded_rects(rect)[-1]
    top = max(abs(y0), abs(y1))
    reach = math.hypot(max(abs(x0), abs(x1)), top)
    circle = max(_SPLIT_FLOOR, 2e-4 * reach)        # the largest circle radius
    n_steps = grid_steps(profile, reach + 2.0 * circle, _PER_RADIAN)
    disk = (0.5 * (x0 + x1), math.hypot(0.5 * (x1 - x0), top) + 4.0 * circle)
    a = travel_time(profile)

    def evaluate(ks):
        d_s, dp_s, scale_log = characteristic_batch(profile, ks, n_steps=n_steps, disk=disk)
        with np.errstate(divide="ignore", invalid="ignore"):
            ld = dp_s / d_s
        return ld, np.abs(d_s * ks) * np.exp(scale_log - (1.0 + a) * np.abs(ks.imag))

    service = _Service(evaluate, n_steps, symmetric=True)
    degree = _composed_table(profile, n_steps, disk)[0].shape[-1] - 1
    service.stats["table"] = dict(zip(("n_steps", "centre", "radius", "steps_per_row", "degree"),
                                      (n_steps, *_table_shape(profile, n_steps, disk), degree)))
    return service


def _count(service, *rects):
    """``rects`` as counted outer ``_Cell``s, their contours advanced together."""
    cells = [service.outer_cell(rect) for rect in rects]
    while counting := [cell for cell in cells if cell.count is None]:
        service.advance(counting, [])
    return cells


def _checked_rect(rect):
    """``rect`` as four floats (x0, x1, y0, y1), else ValueError: finite, x1 > x0, y1 > y0."""
    x0, x1, y0, y1 = rect = tuple(map(float, rect))
    if not all(map(math.isfinite, rect)):
        raise ValueError(f"rect {rect} is not finite")
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"empty rect {rect}")
    return rect


def count_zeros(profile: RefractiveProfile, rect) -> int:
    """Number of zeros of d (with multiplicity) inside the rectangle.

    ``rect`` is (x0, x1, y0, y1) anywhere in the plane, x1 > x0 and y1 > y0,
    with no edge within 1e-9 of the real axis (it would run through the real
    zeros), else ValueError.  A mirror image (x0, x1, -y, y) is counted from its
    three upper edges, as ``find_zeros`` counts it: 2U + N_r for U zeros above
    the axis and N_r on it, where ``find_zeros`` reports U + N_r.  A failed
    contour restarts the count on the next padded rect, as in ``find_zeros``.
    """
    x0, x1, y0, y1 = rect = _checked_rect(rect)
    if min(abs(y0), abs(y1)) <= 1e-9:
        y = max(y1, -y0)
        raise ValueError(f"rect {rect} has an edge on the real axis: count its mirror image "
                         f"{(x0, x1, -y, y)} (2U + N_r zeros) or use find_zeros (U + N_r)")
    return _on_padded_rects(_d_service(profile, rect), rect, _count)[0].count


# ---------------------------------------------------------------------------
# subdivision search
# ---------------------------------------------------------------------------


class _Cell:
    """A search rect: while its contour is counted, its ``pending`` pieces
    ((a, b), sign), its four edges at first, the (row, sign) of its ``accepted``
    halves, its ``rounds`` and ``peak`` (max |F| over its decided pieces); then
    its ``count`` and ``moments``.  ``phase`` is "count" for a search's outer cell.
    A ``sym``metric cell (x0, x1, -y, y) has only its edges x1 -> x1 + iy -> x0 + iy
    -> x0 and counts 2U + N_r: U zeros above the axis, their mirrors, N_r real ones."""
    __slots__ = "rect", "phase", "count", "moments", "pending", "accepted", "rounds", "peak", "sym"

    def __init__(self, rect, phase="subdivide", count=None, moments=None, sym=False):
        self.rect, self.phase, self.count, self.moments = rect, phase, count, moments
        x0, x1, y0, y1 = rect
        y = 0.0 if sym else y0
        ll, lr, ur, ul = complex(x0, y), complex(x1, y), complex(x1, y1), complex(x0, y1)
        self.pending = [((ll, lr), 1), ((lr, ur), 1), ((ul, ur), -1), ((ll, ul), -1)][sym:]
        self.accepted, self.rounds, self.peak, self.sym = [], 0, 0.0, sym


def _halves(rect, sym=False):
    """Halves (rect, sym) of ``rect`` across its longer side, or of (x0, x1, 0, y1) if ``sym``."""
    x0, x1, y0, y1 = rect
    if (x1 - x0) >= (y1 - (low := 0.0 if sym else y0)):
        return ((x0, xm := 0.5 * (x0 + x1), y0, y1), sym), ((xm, x1, y0, y1), sym)
    ym = 0.5 * (low + y1)
    return ((x0, x1, -ym if sym else y0, ym), sym), ((x0, x1, ym, y1), False)


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
    count one zero).  A symmetric cell gives its real zeros and the upper of each pair."""
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
    return [(kj, mj, hj) for kj, mj, hj in zip(k.tolist(), mult.astype(int).tolist(), h.tolist())
            if kj.imag >= 0.0 or not cell.sym]


def _circles(centres, radii, counts):
    """Yield the 8 m trapezoid nodes z = c + h e^(2 pi i j / 8m) of circles of
    ``radii`` h about ``centres`` c (arrays) for count m, receive (f'/f, |F|)
    there and return (count:int|None, min |F|, winding, centroid) per circle:
    w = mean(f'/f (z - c)) and the centroid is c + mean(f'/f (z - c)^2) / w
    (Trefethen & Weideman, SIAM Review 56, 2014).  The count is m if |w - m| <=
    _CIRCLE_TOL (m = 1) or 0.25 (m >= 2), and None otherwise."""
    n = 8 * counts
    start = np.cumsum(n) - n
    owner = np.repeat(np.arange(n.size), n)
    u = radii[owner] * np.exp(2j * np.pi * (np.arange(n.sum()) - start[owner]) / n[owner])
    ld, absD = yield centres[owner] + u
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.add.reduceat(ld * u, start) / n
        k = centres + np.add.reduceat(ld * u * u, start) / (n * w)
    ok = np.abs(w - counts) <= np.where(counts == 1, _CIRCLE_TOL, 0.25)
    return [(int(m) if good else None, mn, wi, ki) for m, good, mn, wi, ki
            in zip(counts, ok, np.minimum.reduceat(absD, start), w, k)]


def _verify(ks, ms, hs, recentre=False):
    """Verify zeros k of multiplicity m on circles of radius h (arrays), yielding
    the points to evaluate and receiving (f'/f, |F|) there: each passes if its
    circle counts m zeros (radius max(1e-3, 2e-4 |k|) for m = 1, centred near
    its zero so that 8 nodes suffice, and _SPLIT_FLOOR for m >= 2) and, if
    simple, |f/f'| <= _STEP_CERT (1 + |k|) at the circle's centroid, where it is
    placed (9 evaluations with its residual), or else, once, at the centroid's
    Newton update if that step is shorter than the radius (one more each).  If
    ``recentre``, each k is also evaluated with its circle (one more each), and if
    not every circle counts m, each is drawn once more about k - m f/f' (8 m more).
    Returns their (k, multiplicity, residual, Certificate) if all pass, else None."""
    circles = _circles(ks, hs, ms)
    nodes = next(circles)
    ld, absD = yield np.concatenate([nodes, ks]) if recentre else nodes
    try:
        circles.send((ld[:nodes.size], absD[:nodes.size]))
    except StopIteration as stop:
        circles = stop.value
    passed = [n == m for (n, *_rest), m in zip(circles, ms)]
    if recentre and not all(passed):
        with np.errstate(divide="ignore", invalid="ignore"):
            ks = ks - np.where(np.isinf(ld[nodes.size:]), 0.0, ms / ld[nodes.size:])
        circles = yield from _circles(ks, hs, ms)
        passed = [n == m for (n, *_rest), m in zip(circles, ms)]
    ks = np.array([k for *_rest, k in circles])
    if all(passed):
        ld, absD = yield ks
        for retry in (False, True):
            with np.errstate(divide="ignore", invalid="ignore"):
                # the Newton step f/f'; f'/f infinite means f vanishes at k to working precision
                step = np.where(np.isinf(ld), 0.0, 1.0 / ld)
            bad = (ms == 1) & ~(np.abs(step) <= _STEP_CERT * (1.0 + np.abs(ks)))
            if not bad.any():
                return [(complex(k), int(m), float(aD), Certificate(
                    float(h), float(abs(w - m)), float(abs(s)) if m == 1 else None, float(mn)))
                    for (_n, mn, w, _c), k, m, h, s, aD in zip(circles, ks, ms, hs, step, absD)]
            if retry or not np.all(np.abs(step[bad]) < hs[bad]):
                break
            ks[bad] -= step[bad]
            ld[bad], absD[bad] = yield ks[bad]
    return None


def _refine(service, cell):
    """``_verify`` the zeros ``_pencil`` reads off a counted cell: their
    (k, multiplicity, residual, Certificate) if all pass, else None (a ``resplit``)."""
    service.stats["clusters"] += 1
    if zeros := _pencil(cell):
        found = yield from _verify(*map(np.array, zip(*zeros)))
        if found is not None:
            return found
    service.stats["retries"]["resplit"] += 1
    return None


# ---------------------------------------------------------------------------
# top-level searches
# ---------------------------------------------------------------------------


def _is_real(k):
    """Whether a zero at k is real: |Im k| <= _REAL_CLASS_TOL (1 + |Re k|)."""
    return abs(k.imag) <= _REAL_CLASS_TOL * (1.0 + abs(k.real))


def _canonicalize(found):
    """Map (k, multiplicity, residual, certificate) to the closed first
    quadrant, classify, merge duplicates.

    Returns (zeros, duplicates_removed_multiplicity).
    """
    out, removed = [], 0
    for k, mult, residual, cert in sorted(found,
                                          key=lambda f: (abs(f[0].real), abs(f[0].imag))):
        k = complex(abs(k.real), abs(k.imag))
        cls = "real" if _is_real(k) else "nonreal"
        if cls == "real":
            k = complex(k.real, 0.0)
        if any(abs(z.k - k) < 5e-7 * (1.0 + abs(k)) for z in out):
            removed += mult
            continue
        out.append(SpectralZero(k=k, multiplicity=mult, cls=cls, residual=residual,
                                certificate=cert))
    out.sort(key=lambda z: (z.k.real, z.k.imag))
    return out, removed


# ---------------------------------------------------------------------------
# seeds: Newton from the asymptotic predictions, and moment deflation
# ---------------------------------------------------------------------------


def _predictions(profile, rect):
    """The first-quadrant zeros the asymptotics predict near ``rect``: the non-real
    k_n (refined where ``predict_nonreal`` can), for each index n within 2 of those
    that Re k / pi (Re k a / pi if a < 1) gives over [x0, x1], as the log terms move
    Re k_n by up to about 1.5 pi; and the real ones, near n pi / |a - 1|, within 1.
    None without an AsymptoticCase (``asymptotic_inputs``)."""
    case, liouville = profile.asymptotic_inputs()
    if case is None:
        return []
    x0, x1, _y0, _y1 = rect

    def near(rate, margin):
        return range(max(1, math.floor(rate * x0 / math.pi) - margin),
                     math.ceil(rate * x1 / math.pi) + margin + 1)

    ks = []
    for n in near(case.a if case.regime == "a_lt_1" else 1.0, 2):
        try:
            ks.append(predict_nonreal(case, n, refine=True))
        except IterationDiverged:   # the refinement's iteration stalled: no seed
            pass
    for n in near(abs(case.a - 1.0), 1):
        try:
            ks.append(complex(predict_real(liouville, n)))
        except (RegimeError, ValueError):    # a = 1, or n pi / (a - 1) below the q_mean term
            pass
    return ks


def _holds(rect, k):
    """Whether k lies inside ``rect`` = (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = rect
    return x0 < k.real < x1 and y0 < k.imag < y1


def _held(cell, zeros):
    """The (k, multiplicity) pairs of ``zeros`` (k in the closed upper half plane)
    inside ``cell`` and their count there, a non-real one of a symmetric cell twice."""
    inside = [(k, m) for k, m in zeros if _holds(cell.rect, k)]
    return inside, sum(m * (1 + (cell.sym and not _is_real(k))) for k, m in inside)


def _deflated(cell, zeros):
    """A counted ``cell`` less the zeros (k, multiplicity) of ``zeros`` it holds: a
    copy whose count is less theirs and whose moments are less nu u^p, or
    nu (u^p + conj u^p) for a non-real zero of a symmetric cell, u = (k - c)/r as in
    _settle (Kravanja & Van Barel, LNM 1727, 2000); ``cell`` itself if it holds none."""
    inside, count = _held(cell, zeros)
    if not inside:
        return cell
    x0, x1, y0, y1 = cell.rect
    c, r = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), 0.5 * max(x1 - x0, y1 - y0)
    p, s = np.arange(cell.moments.size), cell.moments.copy()
    for k, m in inside:
        u = (k - c) / r
        s -= m * (u ** p if not cell.sym else u.real ** p if _is_real(k) else 2.0 * (u ** p).real)
    return _Cell(cell.rect, count=cell.count - count, moments=s, sym=cell.sym)


def _newton(seeds, ld, rect, fold):
    """One Newton step k - f/f' of each seed (k, steps taken, last step length), ``ld``
    its f'/f: (the seeds still running, the settled (k, 1, h)).
    A step is clamped to length _NEWTON_CLAMP and, if ``fold`` (f conjugate-symmetric),
    folded into the closed upper half plane.  A seed settles once the error its step s
    leaves, |s|, or |s|^3 / |s'|^2 after a longer step s' (quadratic convergence), is
    below a tenth of its circle radius h = max(1e-3, 2e-4 |k|); it is dropped once it
    leaves ``rect`` padded by h, or unsettled after _NEWTON_STEPS steps."""
    k, steps, last = (np.array(column) for column in zip(*seeds))
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(np.isinf(ld), 0.0, 1.0 / ld)
        length = np.abs(step)
        step *= np.fmin(1.0, _NEWTON_CLAMP / length)
        length = np.fmin(length, _NEWTON_CLAMP)
        error = length * np.fmin(1.0, length / last) ** 2
    k = k - step
    if fold:
        k = np.where(k.imag < 0.0, k.conj(), k)
    h = np.maximum(1e-3, 2e-4 * np.abs(k))
    x0, x1, y0, y1 = rect
    inside = (x0 - h <= k.real) & (k.real <= x1 + h) & (y0 - h <= k.imag) & (k.imag <= y1 + h)
    settles = inside & (error < 0.1 * h)
    runs = inside & ~settles & (steps + 1 < _NEWTON_STEPS)
    return ([(complex(kj), int(n) + 1, float(a)) for kj, n, a in
             zip(k[runs], steps[runs], length[runs])],
            [(complex(kj), 1, float(hj)) for kj, hj in zip(k[settles], h[settles])])


# ---------------------------------------------------------------------------
# top-level searches
# ---------------------------------------------------------------------------


def _search(service, rect, seeds=()):
    """The counted cell of ``rect`` and the refined zeros inside it, each round
    one ``advance`` of every counting cell, every refinement and every seed.  A cell
    not yet split is split in the first round its count exceeds _MMAX, while counting
    its provisional winding if within 0.25 of an integer (an early split, counted
    on to check its halves add up to it), or in the round it is handed back; a
    counted cell of 1 .. _MMAX zeros is refined.  ContourTooClose if a contour
    (after _MAX_ROUNDS rounds) or a halves-sum check fails, NewtonStall if a
    cell to split is narrower than _SPLIT_FLOOR.  For a conjugate-symmetric f a rect
    (x0, x1, -y, y) is a symmetric cell, refined at up to 2 _MMAX zeros (mirrors
    included), and ContourTooClose if its count less its real zeros is odd.

    ``seeds``, points predicted near simple zeros, seed the search if those inside
    ``rect`` would take the outer cell over its cap.  Each runs Newton (``_newton``)
    from round 1, and each settled one is verified (``_verify``) alone.  The outer
    cell then waits: it is split as without seeds, in the round its first count
    (provisional or not) comes in, if that count less the seeds whose first step is at
    most _SEED_TRUST exceeds its cap.  Otherwise, once counted, it stops its running
    seeds when they could no longer account for every zero that the settled ones
    leave, and verifies the zeros one pencil reads off its moments deflated by the
    settled ones (``_deflated``), if they leave 1 .. cap; if more, or the pencil gives
    none, it is split.  The count decides: once every verification is in, the search
    is complete if the certified zeros account for it; if not, one more pencil,
    deflated by them, may run, else the cell is split.  A counted cell below it waits
    for every verification and is then deflated by the certified zeros it holds."""
    top = service.outer_cell(rect)
    counting, refining, pairs, halved, found = [top], [], [], set(), []
    stats, cap = service.stats, (1 + top.sym) * _MMAX
    running = [(k, 0, math.nan) for k in map(complex, seeds) if _holds(rect, k)]
    if _held(top, [(k, 1) for k, *_rest in running])[1] <= cap:
        running = []
    if running:
        for table, zero in ((stats["phase_evals"], 0), (stats["phase_ksteps"], 0),
                            (service.timings, 0.0)):
            table.setdefault("seed", zero)
        stats.update(seeded=len(running), deflated_count=None)
    stage = "seed" if running else None      # seed -> wait -> verify -> None
    settled, known, deferred, trusted, tried = [], [], [], None, False

    def split(cell):
        x0, x1, y0, y1 = cell.rect
        if max(x1 - x0, y1 - y0) < _SPLIT_FLOOR:
            raise NewtonStall(f"zeros in cell {cell.rect}, narrower than "
                              f"{_SPLIT_FLOOR}, could not be refined")
        halves = [_Cell(half, sym=sym) for half, sym in _halves(cell.rect, cell.sym)]
        counting.extend(halves)
        pairs.append((cell, *halves))
        halved.add(cell)

    def verify(points, recentre=False):
        """Start verifying each (k, m, h) not within a radius of one settled before."""
        fresh = [(k, m, h) for k, m, h in points
                 if all(abs(k - k2) >= max(h, h2) for k2, _m, h2 in settled)]
        for point in fresh:
            settled.append(point)
            gen = _verify(*map(np.array, zip(point)), recentre=recentre)
            refining.append((point, gen, gen.send(None)))
        return fresh

    def pencil(zeros):
        """Verify the zeros of one pencil of the outer moments less ``zeros``."""
        nonlocal tried
        tried = True
        stats["clusters"] += 1
        return verify(_pencil(_deflated(top, zeros)), recentre=True)

    while True:
        if stage == "seed" and trusted is not None:
            w = service.provisional(top) if top.count is None else top.count
            if abs(w - round(w.real)) <= 0.25:
                stage = "wait"
                if round(w.real) - trusted > cap:      # the seeds leave too many: split as without
                    stage, running, settled[:] = None, [], []
                    refining = [entry for entry in refining if isinstance(entry[0], _Cell)]
                    stats["early_splits"] += top.count is None
                    split(top)
        if stage == "wait" and top.count is not None:
            left = top.count - _held(top, [(k, m) for k, m, _h in settled])[1]
            if left <= 0 or _held(top, [(k, 1) for k, *_rest in running])[1] < left:
                running, stage, stats["deflated_count"] = [], "verify", left
                if left > 0 and (left > cap or not pencil([(k, m) for k, m, _h in settled])):
                    split(top)
        if stage == "verify" and all(isinstance(entry[0], _Cell) for entry in refining):
            left = top.count - _held(top, known)[1]
            if top in halved or left == 0:
                stage = None
            elif left < 0:
                raise ContourTooClose(f"the certified zeros of cell {top.rect} exceed its count")
            elif tried or left > cap or not pencil(known):
                stage = None
                split(top)
        if not (counting or refining or running or deferred):
            break
        extra = [("refine", points) for _owner, _gen, points in refining]
        if running:
            extra.append(("seed", np.array([k for k, *_rest in running])))
        values = service.advance(counting, extra)
        steps = [(owner, gen, value) for (owner, gen, _points), value in zip(refining, values)]
        waiting, counting, refining, deferred = counting + deferred, [], [], []
        if running:
            running, points = _newton(running, values[-1][0], rect, service.symmetric)
            if trusted is None:         # the seeds whose first step was short
                trusted = _held(top, [(k, 1) for k, _n, step in running if step <= _SEED_TRUST]
                                + [(k, 1) for k, _m, _h in points])[1]
            verify(points)
        for cell in waiting:
            if cell is top and stage:           # a seeded outer cell waits on its seeds
                if cell.count is None:
                    counting.append(cell)
            elif cell.count is None:
                counting.append(cell)
                w = 0j if cell in halved else service.provisional(cell)
                if (abs(w - round(w.real)) <= 0.25 and round(w.real) - _held(
                        cell, [(k, m) for k, m, _h in settled])[1] > (1 + cell.sym) * _MMAX):
                    stats["early_splits"] += 1
                    split(cell)
            elif stage:         # a seed's zero may lie in it, not yet verified: deflate it later
                deferred.append(cell)
            elif cell not in halved:
                view = _deflated(cell, known)
                if view.count > (1 + cell.sym) * _MMAX:
                    split(cell)
                elif view.count > 0:
                    steps.append((cell, _refine(service, view), None))
        for owner, gen, value in steps:
            try:
                refining.append((owner, gen, gen.send(value)))
            except StopIteration as stop:
                if isinstance(owner, _Cell):
                    if stop.value is None:
                        split(owner)
                    else:
                        found += stop.value
                elif stop.value is None:        # a settled point that failed
                    settled.remove(owner)
                elif _holds(rect, (zero := stop.value[0])[0]) and all(
                        abs(zero[0] - k) >= owner[2] for k, _m in known):   # each zero once
                    found.append(zero)
                    known.append(zero[:2])
        for parent, a, b in pairs:     # an upper half of a symmetric cell counts twice in it
            if (None not in (parent.count, a.count, b.count)
                    and a.count + (1 + parent.sym - b.sym) * b.count != parent.count):
                raise ContourTooClose(f"the halves of cell {parent.rect} do not count its zeros")
        pairs = [pair for pair in pairs if None in (cell.count for cell in pair)]
    real = sum(m for k, m, *_rest in found if _is_real(k))
    if top.sym and (top.count - real) % 2:
        raise ContourTooClose(f"cell {top.rect} counts an odd number of non-real zeros")
    return top, found


def find_zeros(profile: RefractiveProfile, rect) -> SearchReport:
    """All zeros of d (with multiplicity) in a finite first-quadrant rectangle.

    A rect flush with the real axis is searched with its mirror image as one
    symmetric cell (x0, x1, -y1, y1), whose contour runs above the axis only;
    canonical representatives are reported once.  The profile's asymptotic
    predictions (``_predictions``) seed the search (``_search``).  A failed contour
    or split, or a stalled cell, restarts the search on the next padded rect.
    """
    x0, x1, y0, y1 = _checked_rect(rect)
    if x0 < -1e-9 or y0 < -1e-9:
        raise ValueError("rect must lie in the closed first quadrant")
    if math.hypot(x0, y0) < _TRIVIAL_CLEARANCE:
        raise ValueError(f"rect {rect} comes within {_TRIVIAL_CLEARANCE} of k = 0, a zero "
                         "of d for every profile (d(0) = y'(1,0) - y(1,0) = 0); keep its "
                         f"corner (x0, y0) at least {_TRIVIAL_CLEARANCE} from it")
    search_rect = (x0, x1, -y1 if y0 <= 1e-9 else y0, y1)

    seeds = _predictions(profile, _padded_rects(search_rect)[-1])
    service = _d_service(profile, search_rect)
    top, refined = _on_padded_rects(service, search_rect,
                                    lambda service, padded: _search(service, padded, seeds))
    zeros, removed = _canonicalize(refined)
    real = sum(z.multiplicity for z in zeros if z.cls == "real") if top.sym else 0
    count = (top.count - removed + real) // (1 + top.sym)     # U + N_r of a symmetric 2U + N_r
    noteworthy = [z.k for z in zeros if z.cls == "nonreal" and z.multiplicity > 1]
    stats = dict(service.stats, duplicates_removed=removed, noteworthy_multiple_nonreal=noteworthy,
                 zero_step_certificates=sum(z.certificate.step == 0.0 for z in zeros))
    return SearchReport(rect=top.rect, zeros=zeros, total_count_by_argument_principle=count,
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
        csv.writer(fh).writerows([["re_k", "im_k", "multiplicity", "class", "residual"]] + [
            [f"{z.k.real:.12e}", f"{z.k.imag:.12e}", z.multiplicity, z.cls, f"{z.residual:.3e}"]
            for z in zeros])


def write_scatter_csv(path, zeros):
    """The ``re,im`` rows of every member of each zero's orbit, for plotting."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["re", "im"]] + [[f"{c.real:.9e}", f"{c.imag:.9e}"]
                                                   for z in zeros for c in z.symmetric_copies()])


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
