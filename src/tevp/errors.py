"""Exception hierarchy for the tevp package."""


class TevpError(Exception):
    """Base class for all package-specific failures."""


class QuadratureFailure(TevpError):
    """A Chebyshev series could not resolve its integrand to tolerance.

    Raised when 8193 Chebyshev nodes do not resolve sqrt(eta) (the optical
    map) or q sqrt(eta) (the integrals of q), e.g. for a non-smooth eta.
    """


class DerivativeUnavailable(TevpError):
    """Profile representation cannot supply a derivative of the requested order."""


class MassOutOfRange(TevpError):
    """Requested cumulative optical mass is outside (0, a]."""


class StepUnderflow(TevpError):
    """Step doubling missed its tolerance at the step cap; pathological profile or extreme k."""


class NoConvergence(TevpError):
    """The kernel's column march failed its verifying sweep: residual not finite or too large."""


class ContourTooClose(TevpError):
    """A contour's count, or its cell's split, failed on a search's last padded rect."""


class NewtonStall(TevpError):
    """Refinement could not certify the zeros of a cell narrower than the split floor.

    Its moments gave no usable zeros, a zero's verification circle did not
    count it, or a simple zero's Newton step |d/d'| at the circle's centroid
    was too large.  A search raises it only from its last padded rect; on
    every other one it starts again on the next.
    """


class DegenerateCharacteristic(TevpError):
    """d(k) is numerically identically zero (identical interior/exterior spectra)."""


class IterationDiverged(TevpError):
    """Fixed-point iteration for z - lambda*log z = w did not contract."""


class RegimeError(TevpError):
    """Operation requires a different travel-time regime."""
