"""Exception types shared across the package."""


class CentroidCutError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInput(CentroidCutError):
    """Input point set does not span a full-dimensional body."""


class RefNotInterior(CentroidCutError):
    """A reference point that must lie strictly inside the body does not."""


class BadDelta(CentroidCutError):
    """Floating-body fraction outside the allowed range (0, 1/2]."""


class BadSpec(CentroidCutError):
    """Malformed generator or moment specification."""


class BadValue(CentroidCutError, ValueError):
    """Unparseable number, dimension above the cap, budget below 2n or count below 1."""


class Infeasible(CentroidCutError):
    """Moment specification admits no concave profile."""
