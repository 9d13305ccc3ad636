"""Exception taxonomy shared by all modules."""


class ElastowaveError(Exception):
    """Base class for all package errors."""


class UnsupportedDegree(ElastowaveError):
    """Polynomial degree outside the supported range."""


class OutOfReferenceDomain(ElastowaveError):
    """Reference coordinate outside [-1, 1]."""


class InvalidLame(ElastowaveError):
    """Lame parameters violate mu > 0, lambda > -mu."""


class NotSPD(ElastowaveError):
    """Stiffness matrix failed the positive-definiteness check."""


class InvalidExtent(ElastowaveError):
    """Mesh box or element counts are not positive."""


class InvalidReflectionCoefficient(ElastowaveError):
    """Boundary reflection coefficient outside [-1, 1]."""


class PointOutsideDomain(ElastowaveError):
    """Physical point not inside the mesh box."""


class InvalidTol(ElastowaveError):
    """PML target reflection error outside (0, 1]."""


class DivergenceDetected(ElastowaveError):
    """A field became non-finite during time stepping."""


class GeometryInsufficient(ElastowaveError):
    """Reference domain too small to be reflection-free over the run window."""


class DegenerateError(ElastowaveError):
    """Convergence-rate computation received a zero error."""


class ParseError(ElastowaveError):
    """Malformed configuration text."""


class ValidationError(ElastowaveError):
    """Configuration violates one or more invariants.

    The message enumerates every violation, not just the first.
    """


class UnknownPreset(ElastowaveError):
    """Preset name not recognized."""


class UnsupportedOrder(ElastowaveError):
    """Source-time-function derivative order above the supported cap."""
