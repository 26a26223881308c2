"""Exception types shared across the package."""


class HopquantError(Exception):
    """Base class for all package-specific errors."""


class HermiticityError(HopquantError):
    """An operator (or the rule generating it) is not Hermitian within tolerance."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class DegenerateKernelError(HopquantError):
    """Kernel has a vanishing second moment; no finite mass can be extracted."""


class MassRequiredError(HopquantError):
    """Operation needs the particle mass, which has not been supplied or extracted."""


class KernelSymmetryError(HopquantError):
    """Kernel lacks the declared homogeneous-symmetry structure."""


class IntegratorAccuracyError(HopquantError):
    """Time propagation drifted outside the requested norm tolerance."""


class EigenConvergenceError(HopquantError):
    """Extremal eigensolver exceeded its iteration cap; carries residual norms."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class ChargeConjugationError(HopquantError):
    """Gauge hopping rule has an odd flux component; forbidden for C-invariant dynamics."""


class ReflectionSymmetryError(HopquantError):
    """Gauge hopping rule mixes distinct transverse flux directions."""


class GroundStateSignError(HopquantError):
    """Extracted constants violate the requested ground-state sign condition."""


class HilbertDimensionError(HopquantError):
    """A build's dimension exceeds its cap, or its estimated memory the available memory."""


class ConfigError(HopquantError):
    """Config file could not be parsed or carries unknown/invalid entries."""

    def __init__(self, message, line=None, col=None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + location)
        self.line = line
        self.col = col
