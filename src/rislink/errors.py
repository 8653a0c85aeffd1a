"""Exception and warning types shared across the package."""


class RislinkError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometry(RislinkError):
    """Two of the scene reference points coincide."""


class DegenerateTriangle(RislinkError):
    """Distances violate the triangle inequality beyond tolerance."""


class DomainError(RislinkError):
    """Argument outside the mathematical domain of the operation."""


class ShadowedPanel(RislinkError):
    """The radiation pattern blocks the link (F(theta_t) * F(theta_r) = 0)."""


class FarFieldViolation(RislinkError):
    """Far-field validity conditions fail in strict mode."""


class DimensionMismatch(RislinkError):
    """Vector/matrix shapes do not match the scene dimensions."""


class ZeroChannel(RislinkError):
    """Effective channel is identically zero; no direction to align with."""


class EmptyFeasible(RislinkError):
    """The feasible placement region contains no candidate points."""


class TooLarge(RislinkError):
    """Requested exhaustive enumeration exceeds the safety budget."""


class ConfigError(RislinkError):
    """Configuration file is missing, malformed, or fails validation."""


class FarFieldWarning(UserWarning):
    """Far-field validity conditions fail in warn mode."""


class AmbiguousSignWarning(UserWarning):
    """Sign fold O/|O| is undefined at O = 0; the +1 branch was chosen."""


class RegionDWarning(UserWarning):
    """Feasible region overlaps region D where the boundary theorem is silent."""
