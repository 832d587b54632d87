"""Exception and warning types shared across the package."""


class XYBerryError(Exception):
    """Base class for package-specific errors."""


class CriticalPointError(XYBerryError, ValueError):
    """Raised when a geometric phase is requested on a critical manifold.

    Geometric phases are undefined where the spectrum is degenerate, so
    operations that need a finite gap refuse parameters classified as
    critical instead of returning a meaningless number.
    """


class ResourceLimitError(XYBerryError, ValueError):
    """Raised when a dense-matrix request exceeds the configured site cap."""


class DiscretizationError(XYBerryError, RuntimeError):
    """Raised when consecutive loop states overlap too weakly, i.e. the
    loop grid is too coarse for reliable state tracking."""


class StepDetectionError(XYBerryError, ValueError):
    """Raised when a phase trace contains no step crossing to locate."""


class InfeasibleTargetError(XYBerryError, ValueError):
    """Raised when requested effective couplings cannot be realized by
    any lattice configuration."""


class DegenerateLevelWarning(UserWarning):
    """Emitted when a tracked level is (near-)degenerate, so the reported
    quantity is convention- or basis-dependent."""
