"""Exception and warning types shared across the package."""


class GridMismatchError(ValueError):
    """Two signals do not live on the same time grid / state dimension."""


class EdgeMassError(RuntimeError):
    """Weighted signal mass at the grid edges is large enough to corrupt
    transform-based operations through wrap-around."""


class EdgeMassWarning(UserWarning):
    """Weighted edge mass above the warning threshold; wrap-around effects
    may pollute transform-based results."""


class SingularFrequencyError(RuntimeError):
    """A frequency-domain system matrix was numerically singular."""

    def __init__(self, index: int, frequency: float, detail: str = ""):
        self.index = index
        self.frequency = frequency
        msg = f"singular frequency operator at sample {index} (xi = {frequency:.6g})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class KernelAdmissibilityError(ValueError):
    """Convolution kernel violates a structural admissibility requirement."""


class CertificationError(RuntimeError):
    """Well-posedness prerequisites for a solve were not met."""


class NonFiniteSymbolError(CertificationError, ValueError):
    """z^-1 M(z) is not finite at a point of the sampled positivity scan.

    An analytic failure of the symbol, not a malformed input.  It is also a
    ``ValueError``, so callers that catch ``ValueError`` around the scan
    still catch it."""


class QuadratureError(CertificationError):
    """The kernel L1 quadrature did not meet its tolerance within its
    bisection cap.  An analytic failure: no partial sum is returned."""


class DecayFitError(ValueError):
    """A decay fit cannot run: too few usable samples in the fit window."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""
