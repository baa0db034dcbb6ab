"""Closed-form oracle for the `colton_example` profile.

For eta(r) = 16 / ((r+1)^2 (r-3)^2) the Liouville potential is q = 1/4 and
the travel time is a = ln 3, so the characteristic function is exactly

    d(k) = (sqrt(3)/2) [cos(mu a) sin(k)/k - sin(mu a) cos(k)/mu],
    mu = sqrt(k^2 - 1/4).

It is even in mu, so the branch of the square root does not matter.  The
oracle checks a zero list two ways: the number of zeros must equal the
winding number of this closed form around the searched rectangle, and
every zero must lie within ``ZERO_TOL`` of an mpmath root of it.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

ZERO_TOL = 1e-8          # the tolerance the repository's tests pin zeros to
REAL_PAD = 0.15          # find_zeros pads a rect on the real axis this far below it
_A = math.log(3.0)


def closed_form(k):
    """d(k) for colton_example, vectorized over complex numpy arrays."""
    k = np.asarray(k, dtype=complex)
    mu = np.sqrt(k * k - 0.25)
    # sin(mu a)/mu -> a as mu -> 0
    safe = np.where(np.abs(mu) < 1e-12, 1.0, mu)
    sin_over_mu = np.where(np.abs(mu) < 1e-12, _A, np.sin(mu * _A) / safe)
    return 0.5 * math.sqrt(3.0) * (np.cos(mu * _A) * np.sin(k) / k
                                   - sin_over_mu * np.cos(k))


def _closed_form_mp(k):
    mu = mpmath.sqrt(k * k - mpmath.mpf(1) / 4)
    a = mpmath.log(3)
    return mpmath.sqrt(3) / 2 * (mpmath.cos(mu * a) * mpmath.sin(k) / k
                                 - mpmath.sin(mu * a) * mpmath.cos(k) / mu)


def padded_rect(rect):
    """The rectangle find_zeros actually counts in for a first-quadrant rect."""
    x0, x1, y0, y1 = map(float, rect)
    if y0 <= 1e-9:
        y0 = -min(REAL_PAD, 0.5 * (y1 - y0))
    return (x0, x1, y0, y1)


def winding_number(rect, max_jump=0.3, start_step=0.01, max_points=2_000_000):
    """Zeros of the closed form inside ``rect`` by phase unwrapping.

    The boundary is sampled until no two neighbouring samples differ in
    phase by more than ``max_jump`` radians, so no turn is missed.
    """
    x0, x1, y0, y1 = rect
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    step = start_step
    while True:
        pieces = []
        for c0, c1 in zip(corners, corners[1:] + corners[:1]):
            n = max(8, int(math.ceil(abs(c1 - c0) / step)))
            pieces.append(c0 + (c1 - c0) * np.arange(n) / n)
        ks = np.concatenate(pieces + [corners[:1]])
        dphi = np.diff(np.unwrap(np.angle(closed_form(ks))))
        if np.max(np.abs(dphi)) <= max_jump:
            w = float(np.sum(dphi)) / (2.0 * math.pi)
            n = int(round(w))
            if abs(w - n) > 1e-6:
                raise ArithmeticError(f"non-integer winding {w} on {rect}")
            return n
        step /= 4.0
        if ks.size * 4 > max_points:
            raise ArithmeticError(f"a zero of the closed form sits on the edge of {rect}")


def check_zeros(rect, zeros, tol=ZERO_TOL):
    """Compare a search result with the closed form.

    ``zeros`` is a list of (k, multiplicity) in the closed first quadrant.
    Returns (ok, detail): ``detail`` holds the expected and found counts,
    the largest distance to an mpmath root, and a reason when not ok.
    """
    box = padded_rect(rect)
    expected = winding_number(box)
    # a zero just above the real axis has its conjugate inside the padded box
    found = sum(m * (2 if 0.0 < k.imag < -box[2] else 1) for k, m in zeros)
    detail = {"expected": expected, "found": found, "max_err": 0.0, "reason": ""}
    roots = []
    with mpmath.workdps(30):
        for k, _m in zeros:
            try:
                root = complex(mpmath.findroot(_closed_form_mp, mpmath.mpc(k)))
            except (ValueError, ZeroDivisionError) as exc:
                detail["reason"] = f"no root of the closed form near {k}: {exc}"
                return False, detail
            err = abs(root - k)
            detail["max_err"] = max(detail["max_err"], err)
            if err > tol:
                detail["reason"] = f"zero {k} is {err:.2e} from the root {root}"
                return False, detail
            if any(abs(root - r) <= tol for r in roots):
                detail["reason"] = f"two zeros converge to the root {root}"
                return False, detail
            roots.append(root)
    if found != expected:
        detail["reason"] = f"{found} zeros found, the closed form has {expected}"
        return False, detail
    return True, detail
