"""Exception types shared across the package."""


class LunesError(Exception):
    """Base class for all geometry errors raised by this package."""


class DegenerateLune(LunesError):
    """Hemisphere centers coincide or are antipodal, so the lune degenerates."""


class NoEnclosingHemisphere(LunesError):
    """No open hemisphere strictly contains the given point set."""


class DegenerateHull(LunesError):
    """Hull input collapses to fewer than three extreme points or to one great circle."""


class NotSupporting(LunesError):
    """A hemisphere passed as supporting does not actually touch the body."""


class BadRadius(LunesError):
    """Cap radius outside the allowed (0, pi/2] range."""


class InvalidSpec(LunesError):
    """Construction input violates a validity condition (negative corner radius, etc.)."""


class EvenN(InvalidSpec):
    """Vertex count must be odd for the prolonged-diagonal construction."""


class EmptyInterior(LunesError):
    """Half-plane intersection has empty interior."""


class NotInHemisphere(LunesError):
    """Body is not contained in the open hemisphere around the projection pole."""


class PoleNotInterior(LunesError):
    """Projection pole is not strictly interior to the body."""


class InconsistentVerdicts(LunesError):
    """Equivalent self-duality conditions disagree beyond tolerance slack."""


class ConsistencyError(LunesError):
    """Two independent computations of the same quantity disagree."""


class ParseError(LunesError):
    """Document is malformed or violates the serialization schema."""


class InvariantViolation(LunesError):
    """A validated invariant failed; `invariant` names which one."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        msg = invariant if not detail else f"{invariant}: {detail}"
        super().__init__(msg)


class InvalidResolution(LunesError):
    """A sample count or grid resolution is below 1."""
