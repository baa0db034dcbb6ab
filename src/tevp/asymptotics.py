"""Closed-form spectral predictions and their comparison against computed zeros.

Covers: the transcendental equation z - lambda*log z = w whose solution
drives the non-real eigenvalue asymptotics, the prediction formulas of the
travel-time regimes a > 1, a < 1 and a = 1 (``regime(a)``), the two-term
real-eigenvalue asymptotics, the counting law N(r) ~ 4r/pi, and a matcher
that pairs computed zeros with predictions and tracks the residual sequence.

The non-real zeros come in orbits {k, -k, conj k, -conj k}; the formulas
predict one sequence k_n, in the first quadrant where the canonical zeros lie.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass

from .errors import IterationDiverged, RegimeError
from .profiles import (LiouvilleData, RefractiveProfile, liouville_transform,
                       travel_time)

__all__ = [
    "AsymptoticCase",
    "MatchedPair",
    "MatchReport",
    "case_from_profile",
    "solve_transcendental",
    "predict_nonreal",
    "predict_real",
    "match",
    "regime",
    "counting_check",
    "nonreal_count",
    "write_match_csv",
]

_MAX_ORDER = 4           # highest eta derivative at r = 1 searched for the contact order
_TAIL_TOL = 1e-12        # the formulas need |eta(1) - 1| and |eta'(1)| at most this
_SOLVE_TOL = 1e-12       # residual of z - lambda log z = w that solve_transcendental reaches


def regime(a: float) -> str:
    """The travel-time regime tag of a: "a_gt_1", "a_lt_1", or "a_eq_1" within 1e-9."""
    return "a_gt_1" if a > 1.0 + 1e-9 else "a_lt_1" if a < 1.0 - 1e-9 else "a_eq_1"


@dataclass
class AsymptoticCase:
    """Inputs of the non-real eigenvalue prediction formulas.

    ``m`` is the contact order at the outer boundary: eta^(u)(1) = 0 for
    u = 1..m+1 and eta_deriv = eta^(m+2)(1) != 0.  ``q_mean`` (the full
    integral of the transformed potential) enters only when a = 1.
    """
    m: int
    eta_deriv: float
    a: float
    q_mean: float = 0.0

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be a nonnegative integer")
        if self.eta_deriv == 0.0:
            raise ValueError("eta_deriv must be nonzero")
        if self.regime == "a_eq_1" and self.q_mean == 0.0:
            raise ValueError("the a = 1 regime requires a nonzero q_mean")

    @property
    def regime(self) -> str:
        return regime(self.a)


def case_from_profile(profile: RefractiveProfile,
                      liouville: LiouvilleData | None = None) -> AsymptoticCase:
    """Build the prediction inputs from a profile's boundary derivatives.

    The formulas assume a matched tail, eta(1) = 1 and eta'(1) = 0, to
    _TAIL_TOL; a profile without it raises ValueError.
    """
    e1, d1 = float(profile.eta(1.0)), float(profile.eta(1.0, deriv=1))
    if abs(e1 - 1.0) > _TAIL_TOL or abs(d1) > _TAIL_TOL:
        raise ValueError(f"the asymptotic formulas need eta(1) = 1 and eta'(1) = 0; "
                         f"got eta(1) = {e1!r}, eta'(1) = {d1!r}")
    a = travel_time(profile)
    for m in range(_MAX_ORDER - 1):
        eta_deriv = float(profile.eta(1.0, deriv=m + 2))
        if abs(eta_deriv) > 1e-10:
            break
    else:
        raise ValueError(
            f"eta^(j)(1) = 0 for j = 2..{_MAX_ORDER}: contact order out of reach")
    q_mean = ((liouville or liouville_transform(profile)).q_mean
              if regime(a) == "a_eq_1" else 0.0)
    return AsymptoticCase(m=m, eta_deriv=eta_deriv, a=a, q_mean=q_mean)


# ---------------------------------------------------------------------------
# transcendental equation
# ---------------------------------------------------------------------------


def solve_transcendental(lam: float, w: complex) -> complex:
    """Solve z - lam*log z = w by fixed point z <- w + lam*log z.

    Principal branch throughout; seeded by z0 = w + lam*log w, valid in the
    asymptotic regime |w| >= 10(1+|lam|) where the iteration contracts.
    """
    w = complex(w)
    if lam == 0.0:
        return w
    if abs(w) < 10.0 * (1.0 + abs(lam)):
        raise ValueError(f"|w|={abs(w):.3g} too small for the asymptotic regime")
    z = w + lam * cmath.log(w)
    for _ in range(100):
        z_new = w + lam * cmath.log(z)
        if abs(z_new - z) <= 0.1 * _SOLVE_TOL * (1.0 + abs(z_new)):
            z = z_new
            break
        z = z_new
    # Near the branch cut the plain iteration can oscillate between the two
    # sides of the cut; a few Newton steps on f(z) = z - lam*log z - w settle
    # it (f' = 1 - lam/z is ~1 in the asymptotic regime).
    for _ in range(50):
        f = z - lam * cmath.log(z) - w
        if abs(f) <= _SOLVE_TOL:
            break
        z = z - f / (1.0 - lam / z)
    resid = abs(z - lam * cmath.log(z) - w)
    if resid > _SOLVE_TOL:
        raise IterationDiverged(
            f"iteration stalled: residual {resid:.3e} for lam={lam}, w={w}")
    return z


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------


def predict_nonreal(case: AsymptoticCase, n: int, refine: bool = False) -> complex:
    """Leading-order prediction of the first-quadrant non-real zero k_n, principal log.

    With ``refine=True`` (supported for a > 1 with even m), the prediction
    is sharpened by solving the exact transcendental reduction
    z + ((m+2)/2) log z = w_n instead of dropping the residual term.
    """
    if n < 1:
        raise ValueError("index n must be >= 1")
    m, ed = case.m, case.eta_deriv
    tag = case.regime

    if refine and tag == "a_gt_1" and m % 2 == 0:
        L = cmath.log((2.0 ** (m + 4)) / ed)
        try:
            return -1j * solve_transcendental(-0.5 * (m + 2), n * math.pi * 1j - 0.5 * L)
        except ValueError:
            pass  # |w| too small; fall through to the leading-order formula

    npi = n * math.pi
    if tag == "a_gt_1":
        return npi + 0.5j * cmath.log(4.0 * (2.0 * npi * 1j) ** (m + 2) / ed)
    if tag == "a_lt_1":
        arg = -4.0 * (2.0 * npi / case.a * 1j) ** (m + 2) / ed    # k ~ n pi / a
        return npi / case.a + 0.5j / case.a * cmath.log(arg)
    return npi + 0.5j * cmath.log(-8.0 * (2.0 * npi * 1j) ** (m + 1) * case.q_mean / ed)


def predict_real(liouville: LiouvilleData, n: int) -> float:
    """Two-term asymptotic real zero: sqrt(n^2 pi^2/(a-1)^2 + intq/(a-1))."""
    a = liouville.a
    if abs(a - 1.0) < 1e-6:
        raise RegimeError("real-zero asymptotics require a != 1")
    if n < 1:
        raise ValueError("index n must be >= 1")
    val = (n * math.pi / (a - 1.0)) ** 2 + liouville.q_mean / (a - 1.0)
    return math.sqrt(val)


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


@dataclass
class MatchedPair:
    n: int
    predicted: complex
    computed: complex
    residual: float


@dataclass
class MatchReport:
    matched: list
    unmatched_zeros: list          # computed non-real zeros left unpaired
    unmatched_predictions: list    # indices n left unpaired
    index_shift: int               # global shift applied to the formula index

    def max_residual(self, n_lo: int, n_hi: int) -> float:
        vals = [p.residual for p in self.matched if n_lo <= p.n <= n_hi]
        return max(vals) if vals else 0.0


def match(zeros, case: AsymptoticCase, n_window=None) -> MatchReport:
    """Pair computed non-real zeros with ``predict_nonreal``'s refined predictions.

    ``zeros`` is a SearchReport or a list of SpectralZero.  The absolute
    offset between the formula index and the zero ordering is not fixed by
    the asymptotics, so a global shift in {-1, 0, +1} is chosen to minimize
    the total residual and reported.  ``n_window = (lo, hi)`` with
    1 <= lo <= hi fixes the predicted indices; by default they span the
    zeros' real parts.
    """
    if n_window is not None and not 1 <= n_window[0] <= n_window[1]:
        raise ValueError(f"n_window wants 1 <= lo <= hi, got {n_window}")
    zlist = _nonreal(zeros)
    if not zlist:
        return MatchReport([], [], [], 0)
    if n_window is None:
        # the a < 1 zeros sit near n pi / a, the others near n pi
        rate = case.a if case.regime == "a_lt_1" else 1.0
        lo = max(1, int(rate * min(z.k.real for z in zlist) / math.pi) - 2)
        hi = int(rate * max(z.k.real for z in zlist) / math.pi) + 3
    else:
        lo, hi = n_window

    best = None
    for shift in (-1, 0, 1):
        if lo + shift < 1:
            continue
        preds = {n: predict_nonreal(case, n, refine=True)
                 for n in range(lo + shift, hi + shift + 1)}
        pairs, un_z = _greedy_match(zlist, preds)
        total = sum(p.residual for p in pairs) + 10.0 * len(un_z)
        if best is None or total < best[0]:
            used = {p.n for p in pairs}
            un_p = [n for n in preds if n not in used]
            best = (total, MatchReport(pairs, un_z, un_p, shift))
    return best[1]


def _greedy_match(zlist, preds):
    """Nearest-prediction assignment, each prediction used once."""
    items = sorted(preds.items(), key=lambda kv: kv[1].real)
    taken = set()
    pairs, unmatched = [], []
    for z in sorted(zlist, key=lambda z: z.k.real):
        best_n, best_d = None, math.inf
        for n, pk in items:
            if n in taken:
                continue
            d = abs(z.k - pk)
            if d < best_d - 1e-15:
                best_n, best_d = n, d
        if best_n is None or best_d > 0.5 * math.pi:
            unmatched.append(z)
            continue
        taken.add(best_n)
        pairs.append(MatchedPair(n=best_n, predicted=preds[best_n], computed=z.k,
                                 residual=best_d))
    return pairs, unmatched


# ---------------------------------------------------------------------------
# counting law
# ---------------------------------------------------------------------------


def _nonreal(zeros):
    """The non-real zeros of a SearchReport or of a list of SpectralZero."""
    return [z for z in getattr(zeros, "zeros", zeros) if z.cls == "nonreal"]


def nonreal_count(zeros, r):
    """N(r): all four symmetric copies {k, -k, conj k, -conj k} of each
    non-real zero, with multiplicity, in |k| <= r.

    ``zeros`` is a SearchReport or a list of SpectralZero.
    """
    return sum(z.multiplicity * len(z.symmetric_copies()) for z in _nonreal(zeros)
               if abs(z.k) <= r)


def counting_check(zeros, radii):
    """Rows (r, N(r), N(r)*pi/(4r)) for the non-real counting law."""
    rows = []
    for r in radii:
        N = nonreal_count(zeros, r)
        rows.append((float(r), N, N * math.pi / (4.0 * r)))
    return rows


def write_match_csv(path, report: MatchReport):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "re_pred", "im_pred", "re_comp", "im_comp", "abs_residual"])
        for p in sorted(report.matched, key=lambda p: p.n):
            w.writerow([p.n,
                        f"{p.predicted.real:.12e}", f"{p.predicted.imag:.12e}",
                        f"{p.computed.real:.12e}", f"{p.computed.imag:.12e}",
                        f"{p.residual:.6e}"])
