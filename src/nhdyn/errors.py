"""Exception hierarchy shared by all nhdyn modules.

Two branches matter to callers: configuration problems (bad inputs,
malformed scenario files) and numerical failures (degenerate spectra,
truncation caps, unstable integrations). The CLI maps the first branch
to exit status 2 and the second to exit status 3.
"""


class NhdynError(Exception):
    """Base class for all nhdyn errors."""


class ConfigError(NhdynError, ValueError):
    """A scenario config or function argument fails validation."""


class DimensionError(ConfigError):
    """Matrix or vector dimensions are inconsistent with the operation."""


class NumericalError(NhdynError):
    """Base class for runtime numerical failures."""


class NumericRangeError(NumericalError):
    """Entries overflowed or became non-finite during a computation."""


class DegenerateSpectrumError(NumericalError):
    """Eigenvalues collide within the distinctness tolerance."""


class EigensolverError(NumericalError):
    """The eigensolver did not converge or produced bad residuals."""


class BiorthogonalityError(NumericalError):
    """A biorthogonal system could not be established to tolerance."""


class TruncationError(NumericalError):
    """A certified series truncation exceeded the term cap."""


class InstabilityError(NumericalError):
    """An integration step size was too large to track the solution."""


class CertificationError(NumericalError):
    """A precondition certificate (e.g. symmetry membership) failed."""
