"""Zero localization for the characteristic function d(k).

Strategy: argument-principle winding counts over rectangle contours,
recursive subdivision until each cell isolates at most one zero cluster,
then Newton refinement for simple zeros and circle-contour centroid
iteration for clusters.  A multiple zero (or a cluster that floating-point
noise has split below the resolution floor) is reported once, at the
centroid, with the contour-certified multiplicity.

All contour evaluations are funneled through a batching service so that a
whole subdivision level costs a handful of vectorized ODE sweeps.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContourTooClose, DegenerateCharacteristic, NewtonStall
from .forward import characteristic_batch, grid_steps
from .profiles import RefractiveProfile, travel_time

__all__ = [
    "SpectralZero",
    "SearchReport",
    "count_zeros",
    "find_zeros",
    "real_zeros",
    "report_to_json",
    "write_zeros_csv",
]

DEGENERACY_FLOOR = 1e-9      # max |D| on a contour below which d is treated as == 0
_REAL_CLASS_TOL = 1e-9       # |Im k| <= tol*(1+|Re k|) classifies a zero as real
_MMAX_DEFAULT = 4
_CLUSTER_DIAM = 0.4          # cells at most this wide become refinement clusters
_SPLIT_FLOOR = 2e-3          # clusters cohesive at this radius count as one multiple zero
_GL_NODES = np.polynomial.legendre.leggauss(12)
_REAL_STRIP = 0.5            # height of the strip real_zeros searches


@dataclass
class SpectralZero:
    """A zero of d(k), canonical representative in the closed first quadrant."""
    k: complex
    multiplicity: int
    cls: str                 # "real" | "nonreal"
    residual: float          # |D(k)| at the refined point

    def symmetric_copies(self):
        """The distinct members of the orbit {k, -k, conj k, -conj k}."""
        k = self.k
        copies = {k, -k, k.conjugate(), -k.conjugate()}
        return sorted(copies, key=lambda z: (z.real, z.imag))


@dataclass
class SearchReport:
    rect: tuple
    zeros: list
    total_count_by_argument_principle: int
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# batched evaluation service
# ---------------------------------------------------------------------------


class _Service:
    """Caches profile constants and batches d'/d evaluations.

    ``coarse`` sweeps (~3.5 grid steps per radian of phase) are ample for
    integer winding counts; ``fine`` sweeps back Newton polish and centroid
    quadrature.
    """

    def __init__(self, profile: RefractiveProfile):
        self.profile = profile
        self.a = travel_time(profile)
        self.stats = {"batches": 0, "evals": 0}

    def eval(self, ks, fine: bool = False):
        """Return (logderiv, absD) at the given complex points."""
        ks = np.asarray(ks, dtype=complex).ravel()
        if ks.size == 0:
            return np.zeros(0, complex), np.zeros(0)
        n = grid_steps(self.profile, float(np.abs(ks).max()), 8.0 if fine else 3.5)
        d_s, dp_s, scale_log = characteristic_batch(self.profile, ks, n_steps=n)
        self.stats["batches"] += 1
        self.stats["evals"] += ks.size
        with np.errstate(divide="ignore", invalid="ignore"):
            ld = dp_s / d_s
        absD = np.abs(d_s * ks) * np.exp(scale_log - (1.0 + self.a) * np.abs(ks.imag))
        return ld, absD


# ---------------------------------------------------------------------------
# rectangle winding numbers (adaptive Gauss-Legendre, many rects at once)
# ---------------------------------------------------------------------------


def _rect_corners(rect):
    x0, x1, y0, y1 = rect
    return [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]


def _winding_many(service, rects, seg_tol=1e-3, max_rounds=18):
    """Winding numbers of d over rectangle boundaries, several at once.

    Returns a list of (count:int|None, max_absD:float); count None marks a
    contour-too-close failure (non-integer defect or unconverged segment).
    """
    segments = []   # (rect_index, z0, z1, depth)
    for idx, rect in enumerate(rects):
        cs = _rect_corners(rect)
        for c0, c1 in zip(cs, cs[1:] + cs[:1]):
            L = abs(c1 - c0)
            nseg = max(1, int(math.ceil(L / 1.5)))
            for j in range(nseg):
                segments.append((idx, c0 + (c1 - c0) * j / nseg,
                                 c0 + (c1 - c0) * (j + 1) / nseg, 0))
    totals = np.zeros(len(rects), dtype=complex)
    max_absD = np.zeros(len(rects))
    failed = [False] * len(rects)
    x_gl, w_gl = _GL_NODES

    for _ in range(max_rounds):
        if not segments:
            break
        nodes = []
        for (_, z0, z1, _) in segments:
            mid = 0.5 * (z0 + z1)
            for (a, b) in ((z0, z1), (z0, mid), (mid, z1)):
                c, h = 0.5 * (a + b), 0.5 * (b - a)
                nodes.append(c + h * x_gl)
        ld, absD = service.eval(np.concatenate(nodes))
        ld = ld.reshape(len(segments), 3, 12)
        absD = absD.reshape(len(segments), 3, 12)
        next_segments = []
        n_pending = [0] * len(rects)
        for i, (ri, z0, z1, depth) in enumerate(segments):
            np.maximum.at(max_absD, ri, absD[i].max())
            mid = 0.5 * (z0 + z1)
            half = [(z0, z1), (z0, mid), (mid, z1)]
            with np.errstate(invalid="ignore"):
                ints = [np.sum(w_gl * ld[i, j]) * 0.5 * (b - a)
                        for j, (a, b) in enumerate(half)]
            coarse, fine = ints[0], ints[1] + ints[2]
            gap = abs(coarse - fine)
            if failed[ri]:
                continue
            if not np.isfinite(gap):
                # a node hit a zero of d dead-on: this contour is unusable
                failed[ri] = True
            elif gap <= seg_tol:
                totals[ri] += fine
            elif depth >= max_rounds - 1 or n_pending[ri] > 256:
                failed[ri] = True
            else:
                n_pending[ri] += 2
                next_segments.append((ri, z0, mid, depth + 1))
                next_segments.append((ri, mid, z1, depth + 1))
        segments = [s for s in next_segments if not failed[s[0]]]
    for (ri, *_rest) in segments:
        failed[ri] = True

    out = []
    for i in range(len(rects)):
        if failed[i]:
            out.append((None, max_absD[i]))
            continue
        w = totals[i] / (2j * np.pi)
        n = int(round(w.real))
        if abs(w - n) > 0.25 or n < 0:
            out.append((None, max_absD[i]))
        else:
            out.append((n, max_absD[i]))
    return out


def _circle_many(service, circles, n_nodes=96):
    """Trapezoid winding + centroid over circles (c, rho), batched.

    Returns list of (count:int|None, centroid:complex, min_absD).  The
    half-node estimate provides the convergence certificate; the centroid
    uses the shifted moment integral around c for conditioning.
    """
    m = len(circles)
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    unit = np.exp(1j * theta)
    ks = np.concatenate([c + r * unit for (c, r) in circles])
    ld, absD = service.eval(ks, fine=True)
    ld = ld.reshape(m, n_nodes)
    absD = absD.reshape(m, n_nodes)
    out = []
    for i, (c, r) in enumerate(circles):
        dz = 1j * r * unit            # dk/dtheta
        f = ld[i] * dz
        w_full = f.mean() / 1j        # (1/2pi) * 2pi*mean / ... -> count
        w_half = f[::2].mean() / 1j
        g = ld[i] * (r * unit) * dz   # (k - c) d'/d
        mom_full = g.mean() / 1j
        if not (np.isfinite(w_full) and np.isfinite(mom_full)):
            out.append((None, c, absD[i].min()))
            continue
        n = int(round(w_full.real))
        ok = (abs(w_full - n) <= 0.05 and abs(w_full - w_half) <= 0.05 and n >= 0)
        centroid = c + (mom_full / n if n > 0 else 0.0)
        out.append((n if ok else None, centroid, absD[i].min()))
    return out


# ---------------------------------------------------------------------------
# public counting
# ---------------------------------------------------------------------------


def _inflate(rect, factor):
    x0, x1, y0, y1 = rect
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return (cx + (x0 - cx) * factor, cx + (x1 - cx) * factor,
            cy + (y0 - cy) * factor, cy + (y1 - cy) * factor)


def _count_with_perturbation(service, rect):
    """Winding count with up to 5 contour-inflation retries.

    Returns (count, rect_used).
    """
    tried = rect
    worst_mx = 0.0
    for j in range(6):
        (n, mx), = _winding_many(service, [tried])
        worst_mx = max(worst_mx, mx)
        if worst_mx < DEGENERACY_FLOOR:
            raise DegenerateCharacteristic(
                f"max |D| on contour {worst_mx:.3e} below the degeneracy floor")
        if n is not None:
            return n, tried
        tried = _inflate(rect, 1.0 + 2.0 ** (-(j + 1)))
    raise ContourTooClose(f"winding defect > 0.25 for rect {rect} after 5 perturbations")


def count_zeros(profile: RefractiveProfile, rect) -> int:
    """Number of zeros of d (with multiplicity) inside the rectangle.

    ``rect`` is (x0, x1, y0, y1) anywhere in the plane.  Edges passing too
    close to a zero are auto-perturbed by slight inflation.
    """
    n, _ = _count_with_perturbation(_Service(profile), rect)
    return n


# ---------------------------------------------------------------------------
# subdivision search
# ---------------------------------------------------------------------------


class _Cell:
    __slots__ = ("rect", "count", "parent", "jitter", "children")

    def __init__(self, rect, count=None, parent=None):
        self.rect = rect
        self.count = count
        self.parent = parent
        self.jitter = 0
        self.children = None


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


def _subdivide(service, root: _Cell, mmax, cluster_diam):
    """Split until every nonempty cell holds <= mmax zeros in a small cell."""
    clusters = []
    pending = []     # cells whose count is known but need a decision

    def decide(cell):
        x0, x1, y0, y1 = cell.rect
        if cell.count == 0:
            return
        if cell.count <= mmax and (x1 - x0) <= cluster_diam and (y1 - y0) <= cluster_diam:
            clusters.append(cell)
        else:
            pending.extend(_split(cell))

    decide(root)
    rounds = 0
    while pending and rounds < 200:
        rounds += 1
        batch, pending = pending, []
        results = _winding_many(service, [c.rect for c in batch])
        retry_parents = set()
        for cell, (n, _mx) in zip(batch, results):
            cell.count = n
        for cell in batch:
            parent = cell.parent
            if parent in retry_parents:
                continue
            sib = [c for c in parent.children]
            if any(c.count is None for c in sib):
                retry_parents.add(parent)
                continue
            if cell is not sib[0]:
                continue   # handle each sibling pair once
            if sum(c.count for c in sib) != parent.count:
                retry_parents.add(parent)
                continue
            for c in sib:
                decide(c)
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


class _Candidate:
    __slots__ = ("k", "rho", "mult", "residual", "done", "stalled")

    def __init__(self, k, rho, mult=None):
        self.k = complex(k)
        self.rho = float(rho)
        self.mult = mult
        self.residual = math.inf
        self.done = False
        self.stalled = False


def _newton_polish(service, cands, tol):
    """Batched Newton iteration k <- k - m/(d'/d) for candidates."""
    active = [c for c in cands if not c.done]
    for _ in range(60):
        if not active:
            return
        ks = np.array([c.k for c in active])
        ld, absD = service.eval(ks, fine=True)
        still = []
        for c, l, aD in zip(active, ld, absD):
            if np.isinf(l):
                # d vanishes at the iterate to working precision: converged
                c.residual, c.done = 0.0, True
                continue
            step = c.mult / l
            if not np.isfinite(step) or abs(step) > 4.0 * c.rho + 0.5:
                c.stalled = True
                continue
            c.k -= step
            c.residual = float(aD)
            if abs(step) < max(1e-12, 0.01 * tol) * (1.0 + abs(c.k)):
                c.done = True
            else:
                still.append(c)
        active = still
    for c in active:
        c.stalled = True


def _centroid_refine(service, cands):
    """Circle-contour centroid iteration for multiple zeros / clusters.

    Keeps the circle at a moderate radius: too small a circle would sit in
    the floating-point noise floor of a near-multiple zero.
    """
    active = [c for c in cands if not c.done]
    n_nodes = {id(c): 96 for c in active}
    for _ in range(40):
        if not active:
            return
        by_nodes = {}
        for c in active:
            by_nodes.setdefault(n_nodes[id(c)], []).append(c)
        still = []
        for nn, group in by_nodes.items():
            res = _circle_many(service, [(c.k, c.rho) for c in group], n_nodes=nn)
            for c, (cnt, centroid, _minD) in zip(group, res):
                if cnt is None:
                    if nn < 768:
                        n_nodes[id(c)] = nn * 2
                    else:
                        c.rho *= 1.3
                    still.append(c)
                    continue
                if cnt == 0:
                    c.rho *= 1.8        # lost the zero; widen
                    still.append(c)
                    continue
                if c.mult is not None and cnt != c.mult:
                    if cnt < c.mult:
                        c.rho *= 1.5
                        still.append(c)
                        continue
                    # more zeros entered the circle than the cell certified
                    c.rho *= 0.6
                    still.append(c)
                    continue
                if c.mult is None:
                    c.mult = cnt
                moved = abs(centroid - c.k)
                c.k = complex(centroid)
                if c.rho <= 0.045 and moved < 1e-10 * (1.0 + abs(c.k)):
                    c.done = True
                else:
                    c.rho = max(0.5 * c.rho, 0.04)
                    still.append(c)
        active = still
    for c in active:
        c.stalled = True


def _refine_clusters(service, clusters, tol, depth=0):
    """Turn counted cells into refined zeros."""
    zeros = []
    cands = []
    for cell in clusters:
        x0, x1, y0, y1 = cell.rect
        c0 = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        rho = 0.6 * math.hypot(x1 - x0, y1 - y0)
        cands.append(_Candidate(c0, rho, cell.count))

    multi = [c for c in cands if c.mult and c.mult > 1]
    simple = [c for c in cands if c.mult == 1]

    # Simple zeros: centroid once to land near the zero, then Newton.
    if simple:
        res = _circle_many(service, [(c.k, c.rho) for c in simple], n_nodes=128)
        for c, (cnt, centroid, _) in zip(simple, res):
            if cnt == 1:
                c.k = complex(centroid)
        _newton_polish(service, simple, tol)
        fallback = [c for c in simple if c.stalled]
        for c in fallback:
            c.stalled, c.done = False, False
        _centroid_refine(service, fallback)

    _centroid_refine(service, multi)

    stalled = [c for c in cands if c.stalled]
    if stalled:
        raise NewtonStall(f"{len(stalled)} candidate(s) failed to refine: "
                          f"{[c.k for c in stalled]}")

    # split check + residual for multiple zeros
    if multi:
        res = _circle_many(service, [(c.k, _SPLIT_FLOOR) for c in multi], n_nodes=192)
        for c, (cnt, _, _) in zip(multi, res):
            if cnt is not None and 0 < cnt < c.mult and depth < 2:
                # cluster of distinct zeros: re-search a small box around it
                pad = 3.0 * 0.05
                sub = find_zeros(service.profile,
                                 (c.k.real - pad, c.k.real + pad,
                                  c.k.imag - pad, c.k.imag + pad),
                                 tol=tol, cluster_diam=4.0 * _SPLIT_FLOOR,
                                 _depth=depth + 1, _allow_any_rect=True)
                for z in sub.zeros:
                    sc = _Candidate(z.k, _SPLIT_FLOOR, z.multiplicity)
                    sc.residual = z.residual
                    zeros.append(sc)
                c.mult = 0          # consumed
        multi = [c for c in multi if c.mult]

    final = simple + multi
    if final:
        _, absD = service.eval(np.array([c.k for c in final]), fine=True)
        for c, aD in zip(final, absD):
            c.residual = float(aD)
        # final small-contour verification
        res = _circle_many(
            service,
            [(c.k, max(1e-3, 0.02 * abs(c.k) * 1e-2) if c.mult == 1 else 0.05)
             for c in final],
            n_nodes=192)
        for c, (cnt, _, _) in zip(final, res):
            if cnt is not None and cnt != c.mult:
                raise NewtonStall(
                    f"verification count {cnt} != multiplicity {c.mult} at {c.k}")
    zeros.extend(final)
    return zeros


# ---------------------------------------------------------------------------
# top-level searches
# ---------------------------------------------------------------------------


def _canonicalize(cands):
    """Map to the closed first quadrant, classify, merge duplicates.

    Returns (zeros, duplicates_removed_multiplicity).
    """
    out = []
    removed = 0
    for c in sorted(cands, key=lambda c: (abs(c.k.real), abs(c.k.imag))):
        k = complex(abs(c.k.real), abs(c.k.imag))
        cls = "real" if k.imag <= _REAL_CLASS_TOL * (1.0 + abs(k.real)) else "nonreal"
        if cls == "real":
            k = complex(k.real, 0.0)
        dup = next((z for z in out if abs(z.k - k) < 5e-7 * (1.0 + abs(k))), None)
        if dup is not None:
            removed += c.mult
            continue
        out.append(SpectralZero(k=k, multiplicity=c.mult, cls=cls,
                                residual=c.residual))
    out.sort(key=lambda z: (z.k.real, z.k.imag))
    return out, removed


def find_zeros(profile: RefractiveProfile, rect, tol: float = 1e-9,
               mmax: int = _MMAX_DEFAULT, cluster_diam: float = _CLUSTER_DIAM,
               _depth: int = 0, _allow_any_rect: bool = False) -> SearchReport:
    """All zeros of d (with multiplicity) in a first-quadrant rectangle.

    A rect flush with the real axis is padded slightly below it so that
    real zeros are captured; canonical representatives are reported once.
    """
    x0, x1, y0, y1 = map(float, rect)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"empty rect {rect}")
    if not _allow_any_rect and (x0 < -1e-9 or y0 < -1e-9):
        raise ValueError("rect must lie in the closed first quadrant")
    search_rect = (x0, x1, y0, y1)
    if not _allow_any_rect and y0 <= 1e-9:
        search_rect = (x0, x1, -min(0.15, 0.5 * (y1 - y0)), y1)

    service = _Service(profile)
    total, used_rect = _count_with_perturbation(service, search_rect)
    root = _Cell(used_rect, count=total)
    clusters = _subdivide(service, root, mmax, cluster_diam)
    refined = _refine_clusters(service, clusters, tol, depth=_depth)
    zeros, removed = _canonicalize(refined)
    noteworthy = [z.k for z in zeros if z.cls == "nonreal" and z.multiplicity > 1]
    stats = dict(service.stats)
    stats.update(clusters=len(clusters), duplicates_removed=removed,
                 noteworthy_multiple_nonreal=noteworthy)
    return SearchReport(rect=used_rect, zeros=zeros,
                        total_count_by_argument_principle=total - removed,
                        stats=stats)


def real_zeros(profile: RefractiveProfile, kmax: float,
               tol: float = 1e-9) -> list:
    """Real zeros of d in [k_lo, kmax], k_lo = max(tol, 0.05).

    A ``find_zeros`` search on the strip k_lo <= Re k <= kmax,
    0 <= Im k <= _REAL_STRIP, so every multiplicity comes from a contour count.
    """
    k_lo = max(tol, 0.05)
    rep = find_zeros(profile, (k_lo, kmax, 0.0, _REAL_STRIP), tol)
    return [z for z in rep.zeros
            if z.cls == "real" and k_lo <= z.k.real <= kmax]


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
                   "class": z.cls, "residual": z.residual} for z in report.zeros],
        "count": report.total_count_by_argument_principle,
        "stats": {key: _jsonable(v) for key, v in report.stats.items()},
    }


def write_zeros_csv(path, zeros):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re_k", "im_k", "multiplicity", "class", "residual"])
        for z in zeros:
            w.writerow([f"{z.k.real:.12e}", f"{z.k.imag:.12e}",
                        z.multiplicity, z.cls, f"{z.residual:.3e}"])


def write_report_json(path, report: SearchReport):
    with open(path, "w") as fh:
        json.dump(report_to_json(report), fh, indent=2)
        fh.write("\n")
